#include "join/self_join.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/candidate_cascade.h"
#include "join/pair_verifier.h"
#include "join/parallel_for.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace ujoin {

namespace {

// Visiting order: ascending length, ties by original index.  Each string
// only pairs with strings of smaller visiting position, so each unordered
// pair is examined exactly once.
std::vector<uint32_t> LengthSortedOrder(
    const std::vector<UncertainString>& collection) {
  // ujoin-effect: declares(alloc) -- the visiting order is materialized once
  // per join run, before the steady-state wave loop.
  std::vector<uint32_t> order(collection.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return collection[a].length() < collection[b].length();
  });
  return order;
}

void EmitPair(uint32_t a, uint32_t b, double probability, bool exact,
              std::vector<JoinPair>* pairs) {
  if (a > b) std::swap(a, b);
  pairs->push_back(JoinPair{a, b, probability, exact});
}

// Result of one probe task: rank-private, merged in (wave, rank) order so
// the join output and counters are identical for every thread count.
struct ProbeOutcome {
  Status status = Status::OK();
  std::vector<JoinPair> pairs;
  JoinStats stats;
  int64_t probe_ns = 0;       // wall time of this rank's probe
  obs::SpanCollector spans;   // rank-private trace spans (empty when off)
};

}  // namespace

// Parallel driver.  The whole collection is indexed once, in visiting
// order, and frozen; the frequency summaries are built in one parallel
// pass.  The length-sorted scan is then cut into waves — blocks of probes
// that run concurrently against the frozen index and fold in rank order.
// A probe at position i passes id_limit = i to the index so it only sees
// strings of smaller position — exactly the prefix the paper's
// insert-after-every-string scan would have indexed — which keeps results,
// filter decisions, and index counters identical to the sequential
// semantics for every thread count (see DESIGN.md, "Parallel self-join").
Result<SelfJoinResult> SimilaritySelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options) {
  UJOIN_CHECK(options.k >= 0 && options.q >= 1);
  UJOIN_CHECK(options.tau >= 0.0 && options.tau <= 1.0);
  for (size_t i = 0; i < collection.size(); ++i) {
    UJOIN_RETURN_IF_ERROR(internal::ValidateString(
        collection[i], alphabet, "string " + std::to_string(i)));
  }

  SelfJoinResult result;
  JoinStats& stats = result.stats;
  Timer total_timer;

  const std::vector<uint32_t> order = LengthSortedOrder(collection);
  const uint32_t n = static_cast<uint32_t>(order.size());
  std::vector<int> lengths(n);  // ascending; visiting position -> length
  for (uint32_t i = 0; i < n; ++i) {
    lengths[i] = collection[order[i]].length();
  }

  const int threads = internal::ResolveThreads(options.threads, n);
  // Waves only set the fold and progress granularity: every probe sees the
  // same index prefix whatever the wave boundaries.
  const uint32_t wave_size = static_cast<uint32_t>(std::max(64, 8 * threads));

  // Observability sinks (both null unless the caller opted in).  Each rank
  // records into its own Recorder / SpanCollector; the driver folds them in
  // (wave, rank) order below, mirroring JoinStats::Merge, so merged metric
  // counters and work-derived histograms are identical for every thread
  // count (timing-valued histograms vary run to run by nature).
  obs::Recorder* const run_metrics = options.metrics;
  obs::TraceRecorder* const trace = options.trace;

  // ---- build (sequential): index every string, then freeze -------------
  // The probes below only use the frozen index's const query path.
  InvertedSegmentIndex index(options.k, options.q, options.probe);
  if (options.use_qgram_filter) {
    const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
    ScopedTimer timer(&stats.index_build_time);
    for (uint32_t i = 0; i < n; ++i) {
      UJOIN_RETURN_IF_ERROR(index.Insert(i, collection[order[i]]));
    }
    index.Freeze();
    timer.StopAndGet();
    if (trace != nullptr) {
      trace->AddSpan("index_insert", span_start, trace->NowNs() - span_start,
                     /*tid=*/0);
    }
  }
  stats.peak_index_memory = index.MemoryUsage();

  // ---- build (parallel): every frequency summary -------------------------
  std::vector<FrequencySummary> freq_summaries(
      options.use_freq_filter ? n : 0);
  if (options.use_freq_filter) {
    const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
    std::vector<double> freq_times(static_cast<size_t>(threads), 0.0);
    internal::ParallelFor(threads, n, [&](int worker, size_t i) {
      ScopedTimer timer(&freq_times[static_cast<size_t>(worker)]);
      freq_summaries[i] =
          FrequencySummary::Build(collection[order[i]], alphabet);
    });
    for (const double t : freq_times) stats.freq_time += t;
    if (trace != nullptr) {
      trace->AddSpan("freq_summaries", span_start,
                     trace->NowNs() - span_start, /*tid=*/0);
    }
  }

  // One query workspace per pool worker, reused across waves: once warm,
  // the whole candidate-generation stage runs without heap allocation.
  std::vector<QueryWorkspace> workspaces(
      static_cast<size_t>(std::max(threads, 1)));

  // The q-gram stage prunes with Theorem 2's bound only when probabilistic
  // pruning is on; otherwise only the exact support condition applies.
  const double qgram_tau =
      options.qgram_probabilistic_pruning ? options.tau : 0.0;

  std::vector<obs::Recorder> rank_metrics;

  for (uint32_t wave_start = 0; wave_start < n; wave_start += wave_size) {
    const uint32_t wave_end = static_cast<uint32_t>(
        std::min<uint64_t>(n, static_cast<uint64_t>(wave_start) + wave_size));
    const uint32_t wave_count = wave_end - wave_start;
    const int64_t wave_index = static_cast<int64_t>(wave_start / wave_size);
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kWaveStart, wave_index,
                           wave_count);

    std::vector<ProbeOutcome> outcomes(wave_count);
    if (run_metrics != nullptr) {
      rank_metrics.assign(wave_count, obs::Recorder());
    }

    // ---- probe (parallel) -------------------------------------------------
    const int64_t probe_phase_start = trace != nullptr ? trace->NowNs() : 0;
    internal::ParallelFor(threads, wave_count, [&](int worker, size_t rank) {
      QueryWorkspace& workspace = workspaces[static_cast<size_t>(worker)];
      const uint32_t i = wave_start + static_cast<uint32_t>(rank);
      UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kProbeBegin, worker, i);
      const UncertainString& r = collection[order[i]];
      const int len = lengths[i];
      ProbeOutcome& outcome = outcomes[rank];
      JoinStats& pstats = outcome.stats;

      // Rank-private observability state: the index probe records into
      // `rec` via the workspace hook; spans buffer locally and are folded
      // by the driver in (wave, rank) order.
      obs::Recorder* const rec =
          run_metrics != nullptr ? &rank_metrics[rank] : nullptr;
      workspace.obs = rec;
      // Probe-span sampling: the keep/drop decision is a pure function of
      // (sampling seed, global probe index), so sampled traces are identical
      // for every thread count.  Driver/wave spans are never sampled out.
      if (trace != nullptr && trace->SampleProbe(static_cast<int64_t>(i))) {
        outcome.spans =
            obs::SpanCollector(trace, static_cast<uint32_t>(worker) + 1);
      }
      obs::SpanCollector& spans = outcome.spans;
      const JoinStats base = pstats;
      Timer probe_timer;
      const int64_t probe_span_start = spans.NowNs();
      int64_t qgram_ns = 0;

      // ---- candidate generation ----------------------------------------
      // Strings of smaller visiting position with length in [len - k, len]
      // (smaller positions are never longer).
      const auto window_begin =
          std::lower_bound(lengths.begin(), lengths.begin() + i,
                           len - options.k);
      pstats.length_compatible_pairs += (lengths.begin() + i) - window_begin;

      std::vector<uint32_t>& candidates = workspace.candidate_ids;
      candidates.clear();
      if (options.use_qgram_filter) {
        const int64_t span_start = spans.NowNs();
        ScopedNanoTimer timer(&qgram_ns);
        for (int l = std::max(1, len - options.k); l <= len; ++l) {
          const std::span<const IndexCandidate> found = index.Query(
              r, l, qgram_tau, &workspace, &pstats.index_stats,
              /*id_limit=*/i);
          for (const IndexCandidate& c : found) candidates.push_back(c.id);
        }
        timer.StopAndGet();
        spans.Span("qgram_probe", span_start, spans.NowNs() - span_start);
      } else {
        const uint32_t first =
            static_cast<uint32_t>(window_begin - lengths.begin());
        for (uint32_t j = first; j < i; ++j) candidates.push_back(j);
      }
      pstats.qgram_candidates += static_cast<int64_t>(candidates.size());

      // ---- per-candidate filter cascade ---------------------------------
      // The self-join never applies per-query limits: every candidate the
      // filters pass is verified exactly.
      const Status cascade = internal::RunCandidateCascade(
          internal::CascadeProbe{
              .r = r,
              .r_summary =
                  options.use_freq_filter ? &freq_summaries[i] : nullptr,
              .options = options,
              .limits = SearchLimits{},
              .clock = probe_timer,
              .base = base,
              .qgram_ns = qgram_ns,
              .freq_ns = 0,
              .metrics = rec,
              .spans = spans,
              .explain = nullptr},
          candidates,
          [&](uint32_t j) -> const UncertainString& {
            return collection[order[j]];
          },
          [&](uint32_t j) -> const FrequencySummary& {
            return freq_summaries[j];
          },
          &pstats,
          [&](uint32_t j, double probability, bool exact) {
            EmitPair(order[i], order[j], probability, exact, &outcome.pairs);
          });
      if (!cascade.ok()) {
        outcome.status = cascade;
        return;
      }

      outcome.probe_ns = probe_timer.ElapsedNanos();
      UJOIN_OBS_HIST(rec, obs::Hist::kProbeLatencyNs, outcome.probe_ns);
      workspace.obs = nullptr;
      spans.Span("probe", probe_span_start, spans.NowNs() - probe_span_start);
    });

    if (trace != nullptr) {
      trace->AddSpan("wave_probe", probe_phase_start,
                     trace->NowNs() - probe_phase_start, /*tid=*/0);
    }

    // ---- fold (sequential): merge in rank order ---------------------------
    const int64_t merge_span_start = trace != nullptr ? trace->NowNs() : 0;
    for (uint32_t rank = 0; rank < wave_count; ++rank) {
      ProbeOutcome& outcome = outcomes[rank];
      if (!outcome.status.ok()) return outcome.status;
      stats.Merge(outcome.stats);
      result.pairs.insert(result.pairs.end(), outcome.pairs.begin(),
                          outcome.pairs.end());
      if (run_metrics != nullptr) run_metrics->Merge(rank_metrics[rank]);
      if (trace != nullptr) {
        trace->NoteProbe(outcome.spans.enabled());
        trace->Append(outcome.spans.events());
      }
    }
    if (trace != nullptr) {
      trace->AddSpan("wave_merge", merge_span_start,
                     trace->NowNs() - merge_span_start, /*tid=*/0);
    }

    // Wave-level metrics, recorded by the driver after the fold.
    UJOIN_OBS_COUNTER(run_metrics, obs::Counter::kWaves, 1);
    UJOIN_OBS_COUNTER(run_metrics, obs::Counter::kProbes, wave_count);
    if (UJOIN_OBS_ENABLED(run_metrics) && wave_count >= 2) {
      int64_t max_ns = 0;
      int64_t sum_ns = 0;
      for (const ProbeOutcome& outcome : outcomes) {
        max_ns = std::max(max_ns, outcome.probe_ns);
        sum_ns += outcome.probe_ns;
      }
      if (sum_ns > 0) {
        const double mean_ns =
            static_cast<double>(sum_ns) / static_cast<double>(wave_count);
        UJOIN_OBS_HIST(
            run_metrics, obs::Hist::kWaveImbalancePermille,
            static_cast<int64_t>(1000.0 * static_cast<double>(max_ns) /
                                     mean_ns +
                                 0.5));
      }
    }

    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kWaveEnd, wave_index, 0);
    if (options.progress_fn != nullptr) {
      options.progress_fn(
          JoinProgress{wave_end, n, result.pairs.size(),
                       total_timer.ElapsedSeconds()},
          options.progress_user);
    }
  }

  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kThreads, threads);
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kWaveSize,
                  static_cast<int64_t>(wave_size));
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kPeakIndexMemoryBytes,
                  static_cast<int64_t>(stats.peak_index_memory));
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kCollectionSize,
                  static_cast<int64_t>(n));

  std::sort(result.pairs.begin(), result.pairs.end());
  stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

Result<SelfJoinResult> ExhaustiveSelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options) {
  for (size_t i = 0; i < collection.size(); ++i) {
    UJOIN_RETURN_IF_ERROR(internal::ValidateString(
        collection[i], alphabet, "string " + std::to_string(i)));
  }
  SelfJoinResult result;
  Timer total_timer;
  const std::vector<uint32_t> order = LengthSortedOrder(collection);
  std::vector<int> visited_lengths;
  visited_lengths.reserve(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    const UncertainString& r = collection[order[i]];
    const auto window_begin =
        std::lower_bound(visited_lengths.begin(), visited_lengths.end(),
                         r.length() - options.k);
    const uint32_t first =
        static_cast<uint32_t>(window_begin - visited_lengths.begin());
    internal::PairVerifier verifier(r, options);
    for (uint32_t j = first; j < i; ++j) {
      ++result.stats.length_compatible_pairs;
      ++result.stats.verified_pairs;
      Result<double> prob =
          verifier.Probability(collection[order[j]], &result.stats.verify_stats);
      if (!prob.ok()) return prob.status();
      if (prob.value() > options.tau) {
        ++result.stats.result_pairs;
        EmitPair(order[i], order[j], prob.value(), /*exact=*/true,
                 &result.pairs);
      }
    }
    visited_lengths.push_back(r.length());
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace ujoin
