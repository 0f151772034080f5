// ujoin_perf: the end-to-end benchmark program.
//
//   ujoin_perf --workload join_names|search_clean|serve_mixed --seed N
//              --seconds S --trace 0|1 [--corrupt none|pair|hit|response]
//
// Prints the checks, one line per metric (name, value, unit, sample count),
// a "ujoin.perfbench" report line, and finally the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits 0 when the run
// completed (correct or not), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "obs/json_writer.h"
#include "util/simd.h"

namespace {

using perfbench::Corruption;
using perfbench::Outcome;
using perfbench::RunArgs;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ujoin_perf --workload "
               "join_names|search_clean|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--corrupt none|pair|hit|response]\n",
               why);
  return 2;
}

void WriteMetrics(const std::vector<perfbench::Metric>& metrics,
                  bool with_samples, ujoin::obs::JsonWriter* w) {
  w->BeginObject();
  for (const perfbench::Metric& m : metrics) {
    w->Key(m.name);
    w->BeginObject();
    w->Key("value");
    w->Double(m.value);
    w->Key("unit");
    w->String(m.unit);
    if (with_samples) {
      w->Key("samples");
      w->Int(m.samples);
    }
    w->EndObject();
  }
  w->EndObject();
}

std::string ResultLine(const Outcome& out, bool with_samples) {
  ujoin::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(out.correct());
  w.Key("attempted");
  w.Int(out.attempted);
  w.Key("failed");
  w.Int(out.failed);
  w.Key("metrics");
  WriteMetrics(out.metrics, with_samples, &w);
  w.EndObject();
  return w.TakeString();
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--corrupt") {
      if (value == "pair") {
        args.corrupt = Corruption::kDropPair;
      } else if (value == "hit") {
        args.corrupt = Corruption::kChangeHit;
      } else if (value == "response") {
        args.corrupt = Corruption::kChangeResponse;
      } else if (value != "none") {
        return Usage("unknown --corrupt value");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  perfbench::Progress("started");

  Outcome out;
  if (args.workload == "join_names") {
    out = perfbench::RunJoinNames(args);
  } else if (args.workload == "search_clean") {
    out = perfbench::RunSearchClean(args);
  } else if (args.workload == "serve_mixed") {
    out = perfbench::RunServeMixed(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  perfbench::Progress("workload done");

  std::printf("workload %s  seed %llu  trace %d  threads %d  nproc %u  "
              "simd_isa %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              perfbench::kThreads, std::thread::hardware_concurrency(),
              ujoin::simd::ActiveIsaName());
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  if (!out.pass_walls_s.empty()) {
    std::printf("  pass walls (s):");
    for (double w : out.pass_walls_s) std::printf(" %.4f", w);
    std::printf("\n");
  }
  if (args.trace) {
    std::printf("  per-layer times are single-threaded sums of wall time "
                "from the traced replay\n");
  }
  const double fail_frac = out.attempted > 0
                               ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 1.0;
  out.extra.push_back(perfbench::Metric{"fail_frac", fail_frac, "ratio",
                                        out.attempted});
  for (const std::vector<perfbench::Metric>* list : {&out.metrics, &out.extra}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("  %-28s %16.6f %-6s (n=%lld)%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples),
                  list == &out.extra ? "  [no bound]" : "");
    }
  }

  ujoin::obs::JsonWriter report;
  report.BeginObject();
  report.Key("report");
  report.String("ujoin.perfbench");
  report.Key("workload");
  report.String(args.workload);
  report.Key("seed");
  report.UInt(args.seed);
  report.Key("seconds");
  report.Double(args.seconds);
  report.Key("trace");
  report.Int(args.trace ? 1 : 0);
  report.Key("threads");
  report.Int(perfbench::kThreads);
  report.Key("nproc");
  report.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  report.Key("simd_isa");
  report.String(ujoin::simd::ActiveIsaName());
  report.Key("result");
  report.RawValue(ResultLine(out, /*with_samples=*/true));
  report.Key("extra");
  WriteMetrics(out.extra, /*with_samples=*/true, &report);
  report.Key("pass_walls_s");
  report.BeginArray();
  for (double w : out.pass_walls_s) report.Double(w);
  report.EndArray();
  report.EndObject();
  std::printf("%s\n", report.TakeString().c_str());
  std::printf("%s\n", ResultLine(out, /*with_samples=*/false).c_str());
  return 0;
}
