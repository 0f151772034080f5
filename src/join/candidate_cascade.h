#ifndef UJOIN_JOIN_CANDIDATE_CASCADE_H_
#define UJOIN_JOIN_CANDIDATE_CASCADE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "filter/cdf_filter.h"
#include "filter/freq_filter.h"
#include "join/explain.h"
#include "join/join_options.h"
#include "join/join_stats.h"
#include "join/pair_verifier.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "text/alphabet.h"
#include "text/uncertain_string.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/timer.h"

namespace ujoin::internal {

/// Checks that `s` is non-empty and draws only on `alphabet` (the cascade's
/// filters treat a foreign symbol as a programming error).  `what` names
/// the string in the error message: "<what> is empty".
inline Status ValidateString(const UncertainString& s, const Alphabet& alphabet,
                             std::string_view what) {
  if (s.empty()) {
    return Status::InvalidArgument(std::string(what) + " is empty");
  }
  for (int pos = 0; pos < s.length(); ++pos) {
    for (const CharProb& cp : s.AlternativesAt(pos)) {
      if (!alphabet.Contains(cp.symbol)) {
        return Status::InvalidArgument(std::string(what) + " uses symbol '" +
                                       cp.symbol + "' outside the alphabet");
      }
    }
  }
  return Status::OK();
}

/// \brief The probe side of one cascade run: the string R whose candidates
/// are filtered, and the sinks the run reports into.
struct CascadeProbe {
  const UncertainString& r;
  /// R's frequency summary; may be null when the frequency filter is off or
  /// `candidates` is empty.
  const FrequencySummary* r_summary;
  /// Effective options (SearchTopK forces exact verification).
  const JoinOptions& options;
  /// Per-query deadline and verification budget (none for the self-join).
  SearchLimits limits;
  /// Started before candidate generation; the deadline is measured on it.
  const Timer& clock;
  /// The caller's stats as they were before candidate generation: the
  /// funnel records are deltas against it.
  const JoinStats& base;
  /// Stage nanoseconds the driver spent before the cascade: candidate
  /// generation, and R's frequency summary when it built one.
  int64_t qgram_ns;
  int64_t freq_ns;
  obs::Recorder* metrics;
  obs::SpanCollector& spans;
  /// One narrative row per candidate, in candidate order; null when off.
  ExplainCandidate* explain;
};

/// \brief The per-candidate filter cascade of QFCT (DESIGN.md "Parallel
/// self-join"): frequency filter (Section 5), CDF bounds (Section
/// 6.1), the per-query limit fallback, then trie verification (Section
/// 6.2), shared by the self-join probe and SimilaritySearcher.
///
/// For each id of `candidates`, `string_at(id)` and `summary_at(id)` give
/// the candidate string and its frequency summary; `emit(id, probability,
/// exact)` receives every match.  Records every stage counter into `stats`,
/// folds the stage nanoseconds (the probe's `qgram_ns`/`freq_ns` included)
/// into its seconds fields, and reports the kernel-ns counters, the four
/// funnel records, the verify histograms and the aggregate stage spans.
/// Returns the first verification error; the stats are then incomplete.
template <typename StringAt, typename SummaryAt, typename Emit>
Status RunCandidateCascade(const CascadeProbe& probe,
                           std::span<const uint32_t> candidates,
                           const StringAt& string_at,
                           const SummaryAt& summary_at, JoinStats* stats,
                           const Emit& emit) {
  const JoinOptions& options = probe.options;
  const SearchLimits& limits = probe.limits;
  obs::Recorder* const metrics = probe.metrics;
  PairVerifier verifier(probe.r, options);
  // World-count factor of R, computed once and only when someone consumes
  // it (WorldCount walks every position): a recorder, the verification
  // budget, explain rows, or the flight recorder, whose verify-begin events
  // carry the world estimate the watchdog reports for stalled
  // verifications.
  const bool budget_active = limits.max_verify_worlds > 0;
  const bool limit_active = budget_active || limits.deadline_ns > 0;
  const bool want_worlds = UJOIN_OBS_ENABLED(metrics) || budget_active ||
                           probe.explain != nullptr ||
                           UJOIN_OBS_FLIGHT_ENABLED();
  const int64_t r_worlds = want_worlds ? probe.r.WorldCount() : 0;
  // Sub-millisecond per-pair stages accumulate integer nanoseconds and fold
  // into the seconds-based stats once per run.
  int64_t freq_ns = probe.freq_ns;
  int64_t cdf_ns = 0;
  int64_t verify_ns = 0;
  int64_t verify_emitted = 0;

  // Every candidate's narrative is written to a row: its explain row, or a
  // scratch row nobody reads when explain is off.
  ExplainCandidate scratch_row;
  // Counts, emits and narrates one match.
  const auto report = [&](uint32_t id, ExplainCandidate& row,
                          double probability, bool exact) {
    ++stats->result_pairs;
    emit(id, probability, exact);
    row.emitted = true;
    row.probability = probability;
    row.exact = exact;
  };

  const int64_t cascade_start = probe.spans.NowNs();
  for (size_t c = 0; c < candidates.size(); ++c) {
    const uint32_t id = candidates[c];
    const UncertainString& s = string_at(id);
    ExplainCandidate& row =
        probe.explain != nullptr ? probe.explain[c] : scratch_row;
    if (options.use_freq_filter) {
      ScopedNanoTimer timer(&freq_ns);
      const FreqFilterOutcome freq =
          EvaluateFreqFilter(*probe.r_summary, summary_at(id), options.k);
      row.have_freq = true;
      row.freq_lower_bound = freq.fd_lower_bound;
      row.freq_upper_bound = freq.upper_bound;
      if (freq.fd_lower_bound > options.k) {
        ++stats->freq_lower_pruned;
        row.stage = ExplainStage::kFreqLowerPruned;
        continue;
      }
      if (freq.upper_bound <= options.tau) {
        ++stats->freq_upper_pruned;
        row.stage = ExplainStage::kFreqUpperPruned;
        continue;
      }
    }
    ++stats->freq_candidates;

    bool need_verify = true;
    bool have_cdf = false;
    double cdf_lower = 0.0;
    if (options.use_cdf_filter) {
      ScopedNanoTimer timer(&cdf_ns);
      const CdfFilterOutcome cdf =
          EvaluateCdfFilter(probe.r, s, options.k, options.tau);
      have_cdf = true;
      cdf_lower = cdf.bounds.lower[static_cast<size_t>(options.k)];
      row.have_cdf = true;
      row.cdf_lower = cdf_lower;
      if (cdf.decision == CdfDecision::kReject) {
        ++stats->cdf_rejected;
        row.stage = ExplainStage::kCdfRejected;
        continue;
      }
      if (cdf.decision == CdfDecision::kAccept) {
        ++stats->cdf_accepted;
        if (!options.always_verify) need_verify = false;
      } else {
        ++stats->cdf_undecided;
      }
    }

    if (!need_verify) {
      row.stage = ExplainStage::kCdfAccepted;
      report(id, row, cdf_lower, /*exact=*/false);
      continue;
    }

    // Per-query limits (the serve layer's deadline / verification budget):
    // when this pair's exact verification is forbidden, decide it from the
    // certified CDF lower bound instead and mark the run inexact.  The
    // budget is a pure function of the two strings, so budget-limited
    // results stay deterministic; the deadline is wall-clock and is not.
    if (limit_active) {
      const bool over_budget = ExceedsWorldBudget(
          SaturatingMul(r_worlds, s.WorldCount()), limits.max_verify_worlds);
      const bool over_deadline =
          !over_budget && limits.deadline_ns > 0 &&
          probe.clock.ElapsedNanos() > limits.deadline_ns;
      if (over_budget || over_deadline) {
        if (!have_cdf) {
          ScopedNanoTimer timer(&cdf_ns);
          const CdfFilterOutcome cdf =
              EvaluateCdfFilter(probe.r, s, options.k, options.tau);
          cdf_lower = cdf.bounds.lower[static_cast<size_t>(options.k)];
        }
        if (over_budget) {
          ++stats->budget_fallbacks;
          UJOIN_OBS_COUNTER(metrics, obs::Counter::kVerifyBudgetFallbacks, 1);
        } else {
          ++stats->deadline_fallbacks;
          UJOIN_OBS_COUNTER(metrics, obs::Counter::kVerifyDeadlineFallbacks,
                            1);
        }
        row.have_cdf = true;
        row.cdf_lower = cdf_lower;
        row.stage = over_budget ? ExplainStage::kBudgetFallback
                                : ExplainStage::kDeadlineFallback;
        if (cdf_lower > options.tau) {
          report(id, row, cdf_lower, /*exact=*/false);
        }
        continue;
      }
    }

    const int64_t pair_worlds =
        want_worlds ? SaturatingMul(r_worlds, s.WorldCount()) : 0;
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kVerifyBegin, pair_worlds, 0);
    Timer verify_timer;
    ++stats->verified_pairs;
    const int64_t nodes_before = stats->verify_stats.explored_s_nodes;
    Result<ThresholdVerdict> verdict =
        verifier.Decide(s, options.tau, &stats->verify_stats);
    const int64_t pair_verify_ns = verify_timer.ElapsedNanos();
    verify_ns += pair_verify_ns;
    UJOIN_OBS_HIST(metrics, obs::Hist::kVerifyLatencyNs, pair_verify_ns);
    UJOIN_OBS_HIST(metrics, obs::Hist::kExploredTrieNodes,
                   stats->verify_stats.explored_s_nodes - nodes_before);
    UJOIN_OBS_HIST(metrics, obs::Hist::kVerifyWorldCount, pair_worlds);
    if (!verdict.ok()) return verdict.status();
    row.stage = ExplainStage::kVerified;
    row.verify_worlds = pair_worlds;
    if (verdict->similar) {
      ++verify_emitted;
      report(id, row, verdict->lower, verdict->exact);
    }
  }

  stats->qgram_time += 1e-9 * static_cast<double>(probe.qgram_ns);
  stats->freq_time += 1e-9 * static_cast<double>(freq_ns);
  stats->cdf_time += 1e-9 * static_cast<double>(cdf_ns);
  stats->verify_time += 1e-9 * static_cast<double>(verify_ns);
  UJOIN_OBS_COUNTER(metrics, obs::Counter::kKernelFreqDistNs, freq_ns);
  UJOIN_OBS_COUNTER(metrics, obs::Counter::kKernelCdfDpNs, cdf_ns);

  // Filter-funnel flow of this run, as deltas against the base snapshot (a
  // disabled stage is a pass-through: entered == survived).
  const JoinStats& base = probe.base;
  const int64_t qgram_out = stats->qgram_candidates - base.qgram_candidates;
  const int64_t freq_out = stats->freq_candidates - base.freq_candidates;
  UJOIN_OBS_FUNNEL(
      metrics, obs::FunnelStage::kQgram,
      stats->length_compatible_pairs - base.length_compatible_pairs,
      qgram_out);
  UJOIN_OBS_FUNNEL(metrics, obs::FunnelStage::kFreqDistance, qgram_out,
                   freq_out);
  UJOIN_OBS_FUNNEL(metrics, obs::FunnelStage::kCdfBound, freq_out,
                   freq_out - (stats->cdf_rejected - base.cdf_rejected));
  UJOIN_OBS_FUNNEL(metrics, obs::FunnelStage::kVerify,
                   stats->verified_pairs - base.verified_pairs,
                   verify_emitted);

  if (probe.spans.enabled()) {
    // The per-pair stages interleave, so they are emitted as aggregate
    // spans laid back to back from the cascade's start; each span's
    // duration is that stage's summed time in this run (DESIGN.md
    // "Observability").
    int64_t t = cascade_start;
    if (options.use_freq_filter) {
      probe.spans.Span("freq_filter", t, freq_ns);
      t += freq_ns;
    }
    if (options.use_cdf_filter) {
      probe.spans.Span("cdf_dp", t, cdf_ns);
      t += cdf_ns;
    }
    if (verify_ns > 0) probe.spans.Span("trie_verify", t, verify_ns);
  }
  return Status::OK();
}

}  // namespace ujoin::internal

#endif  // UJOIN_JOIN_CANDIDATE_CASCADE_H_
