// Traced single-threaded replay of the program's candidate cascades, built
// only from the modules' public functions (index, filter, verify).  Every
// call into a layer is wrapped in a span, so layer self time comes from the
// replay rather than from the program's own stage timers.  The replay must
// reproduce the program's outputs and funnel counters exactly; the workloads
// check that before they trust its numbers (the fidelity gate).
#ifndef UJOIN_PERFBENCH_REPLAY_H_
#define UJOIN_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "join/join_stats.h"
#include "join/search.h"
#include "join/self_join.h"

namespace perfbench {

// Output of a replayed self-join: the pair list plus the funnel and work
// counters filled exactly as JoinStats fills them (times are left at 0).
struct JoinReplay {
  std::vector<ujoin::JoinPair> pairs;
  ujoin::JoinStats stats;
  int64_t similar_walks = 0;
};

// Replays SimilaritySelfJoin: the length-sorted visiting order, waves of
// max(64, 8 x threads) strings inserted before they probe, and every probe
// limited to ids of smaller visiting position.  Spans: join.wave >
// index.insert | filter.freq_summary | join.probe > index.query |
// filter.freq | filter.cdf | verify.trie_build | verify.walk.
ujoin::Result<JoinReplay> ReplaySelfJoin(
    const std::vector<ujoin::UncertainString>& collection,
    const ujoin::Alphabet& alphabet, const ujoin::JoinOptions& options,
    int threads, Tracer* tracer);

// Output of replayed searches: per-query hits (sorted by id) plus counters.
struct SearchReplay {
  std::vector<std::vector<ujoin::SearchHit>> hits;
  ujoin::JoinStats stats;
  int64_t similar_walks = 0;
};

// Builds the index the way SimilaritySearcher::Create does (index.insert,
// filter.freq_summary, index.freeze spans) and replays Search for each query
// in `queries` (search.query > filter.freq_summary | index.query |
// filter.freq | filter.cdf | verify.trie_build | verify.walk).  All queries
// form one wave: SearchMany has no barrier inside a call.
ujoin::Result<SearchReplay> ReplaySearch(
    const std::vector<ujoin::UncertainString>& collection,
    const ujoin::Alphabet& alphabet, const ujoin::JoinOptions& options,
    const std::vector<ujoin::UncertainString>& queries, Tracer* tracer);

// True when two pair lists agree exactly: ids, probability bits and flags.
bool SamePairs(const std::vector<ujoin::JoinPair>& a,
               const std::vector<ujoin::JoinPair>& b);
bool SameHits(const std::vector<ujoin::SearchHit>& a,
              const std::vector<ujoin::SearchHit>& b);
// The funnel counters the fidelity gate compares; empty when equal, else a
// description of the first difference.
std::string FunnelDiff(const ujoin::JoinStats& program,
                       const ujoin::JoinStats& replay);

// Wall-clock facts about the program that the per-layer report needs.
struct ProgramTimes {
  double single_thread_wall_s = 0;  // untraced run of the same work, 1 thread
  double parallel_wall_s = 0;       // the same work at kThreads threads
};

// Adds the replay-derived per-layer metrics to `out` from the replay's spans
// and counters.  The traced wall time is the sum of the replay's wave spans,
// which cover the same work as `times`.
void AddLayerMetrics(const Tracer& tracer, const ujoin::JoinStats& stats,
                     int64_t similar_walks, double index_bytes,
                     const ProgramTimes& times, Outcome* out);

}  // namespace perfbench

#endif  // UJOIN_PERFBENCH_REPLAY_H_
