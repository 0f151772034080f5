#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

ujoin::DatasetOptions NamesData(int size, uint64_t seed) {
  ujoin::DatasetOptions opt;
  opt.kind = ujoin::DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.2;
  opt.gamma = 5;
  opt.seed = seed;
  opt.max_uncertain_positions = 6;
  return opt;
}

ujoin::JoinOptions JoinConfig() { return ujoin::JoinOptions::Qfct(2, 0.1, 3); }

std::vector<std::string> ToLines(
    const std::vector<ujoin::UncertainString>& strings) {
  std::vector<std::string> lines;
  lines.reserve(strings.size());
  for (const ujoin::UncertainString& s : strings) lines.push_back(s.ToString());
  return lines;
}

ujoin::Result<std::vector<ujoin::UncertainString>> ParseLines(
    const std::vector<std::string>& lines, const ujoin::Alphabet& alphabet,
    Tracer* tracer) {
  std::vector<ujoin::UncertainString> out;
  out.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    Scope span(tracer, "text.parse", static_cast<int64_t>(i));
    ujoin::Result<ujoin::UncertainString> s =
        ujoin::UncertainString::Parse(lines[i], alphabet);
    if (!s.ok()) return s.status();
    out.push_back(std::move(s).value());
  }
  return out;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // VmHWM := current RSS
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Progress(const char* phase) {
  static const int64_t start_ns = NowNs();
  std::fprintf(stderr, "perfbench: %s (%.1f s)\n", phase,
               1e-9 * static_cast<double>(NowNs() - start_ns));
}

}  // namespace perfbench
