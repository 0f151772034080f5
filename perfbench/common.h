// Shared pieces of the end-to-end benchmark (ujoin_perf): workload constants,
// input generation, the span tracer used by the traced replay, small
// statistics helpers, and the per-run outcome every workload returns.
#ifndef UJOIN_PERFBENCH_COMMON_H_
#define UJOIN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "join/join_options.h"
#include "text/alphabet.h"
#include "text/uncertain_string.h"
#include "util/status.h"

namespace perfbench {

// Worker threads of every parallel call (the reference machine has 4 cores).
inline constexpr int kThreads = 4;

// join_names: self-join of this many generated names.
inline constexpr int kJoinSize = 7000;
// search_clean / serve_mixed: indexed collection plus a held-out pool drawn
// from the same generator run (near-duplicates of indexed strings included).
inline constexpr int kIndexSize = 18000;
inline constexpr int kHeldOutSize = 6000;
// search_clean: queries per SearchMany call.
inline constexpr int kSearchQueries = 50000;
// serve_mixed: requests per pass, closed-loop clients, batch length (a blank
// separator line after this many requests; the server's cap is 1024).
inline constexpr int kServeRequests = 50000;
inline constexpr int kServeClients = 4;
inline constexpr int kServeBatch = 64;
inline constexpr double kServeUncertainShare = 0.10;

// Set-up is repeated at least this many times per run, and for at least
// kSetupMinSeconds, and reported as the median.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupMinSeconds = 1.0;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The paper's dblp configuration (Section 7): names, theta 0.2, gamma 5,
// at most 6 uncertain positions per string.
ujoin::DatasetOptions NamesData(int size, uint64_t seed);
// QFCT with k = 2, tau = 0.1, q = 3.
ujoin::JoinOptions JoinConfig();

// Renders strings as text lines in the paper's notation (the program input).
std::vector<std::string> ToLines(const std::vector<ujoin::UncertainString>& s);

class Tracer;

// Parses text lines with UncertainString::Parse; each call is a
// "text.parse" span when `tracer` is non-null.
ujoin::Result<std::vector<ujoin::UncertainString>> ParseLines(
    const std::vector<std::string>& lines, const ujoin::Alphabet& alphabet,
    Tracer* tracer = nullptr);

// --- spans ------------------------------------------------------------------

// One timed call into a layer.  `parent` is the index of the enclosing span
// (-1 at top level); `request` is the probe position or query index the call
// served (-1 when none).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t request;
};

// In-memory span recorder.  Spans nest through an open-span stack; all of
// them stay in memory until the run reports.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name, int64_t request) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    stack_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus its children's durations.
  std::vector<int64_t> SelfNs() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// Wraps one call in a span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// --- statistics ---------------------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Returns free heap memory to the OS and restarts the peak resident set
// size at the current resident size, so PeakRssMb() covers what follows.
void ResetPeakRss();
// Peak resident set size since the last ResetPeakRss (or process start), MiB.
double PeakRssMb();

// Writes `phase` and the seconds since the first call to standard error, so
// a run cut short shows where it stood.
void Progress(const char* phase);

// --- run outcome ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;  // measurements the value summarizes
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Reported, but not BENCHMARK.json metrics (too unsteady across seeds to
  // carry a bound); they go to the report line, not the result line.
  std::vector<Metric> extra;
  std::vector<double> pass_walls_s;  // every timed pass, in order
  std::vector<std::string> notes;    // human-readable check results

  void Add(std::string name, double value, std::string unit,
           int64_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  // Counts `n` checked operations of which `bad` failed.
  void Tally(int64_t n, int64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    notes.push_back(std::string(bad == 0 ? "ok   " : "FAIL ") + what);
  }
  void Check(bool ok, const std::string& what) { Tally(1, ok ? 0 : 1, what); }
  bool correct() const { return failed == 0; }
};

// Deliberate output corruption, applied after a run and before its checks,
// to prove the checks detect a wrong answer.
enum class Corruption { kNone, kDropPair, kChangeHit, kChangeResponse };

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Corruption corrupt = Corruption::kNone;
};

Outcome RunJoinNames(const RunArgs& args);
Outcome RunSearchClean(const RunArgs& args);
Outcome RunServeMixed(const RunArgs& args);

}  // namespace perfbench

#endif  // UJOIN_PERFBENCH_COMMON_H_
