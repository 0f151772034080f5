#include "replay.h"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>

#include "filter/cdf_filter.h"
#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "verify/verifier.h"

namespace perfbench {

using ujoin::JoinOptions;
using ujoin::JoinStats;
using ujoin::Result;
using ujoin::Status;
using ujoin::UncertainString;

namespace {

// PairVerifier's behaviour for the benchmark's configuration (trie method,
// no early stop): build T_R once per probe on its first verification, walk
// it per candidate, and fall back to the robust one-shot chain when the trie
// exceeds its node budget.
class ReplayVerifier {
 public:
  ReplayVerifier(const UncertainString& r, const JoinOptions& options,
                 Tracer* tracer, int64_t request)
      : r_(r), options_(options), tracer_(tracer), request_(request) {}

  Result<double> Probability(const UncertainString& s,
                             ujoin::VerifyStats* stats) {
    if (!tried_) {
      tried_ = true;
      Scope span(tracer_, "verify.trie_build", request_);
      Result<ujoin::TrieVerifier> built =
          ujoin::TrieVerifier::Create(r_, options_.k, options_.verify);
      if (built.ok()) trie_.emplace(std::move(built).value());
    }
    Scope span(tracer_, "verify.walk", request_);
    if (trie_.has_value()) return trie_->Probability(s, stats);
    return ujoin::VerifyPairProbability(r_, s, options_.k, options_.verify,
                                        stats);
  }

 private:
  const UncertainString& r_;
  const JoinOptions& options_;
  Tracer* tracer_;
  int64_t request_;
  std::optional<ujoin::TrieVerifier> trie_;
  bool tried_ = false;
};

// The per-candidate cascade shared by SimilaritySelfJoin and Search:
// frequency filter, CDF filter, then exact verification of the undecided.
template <typename StringAt, typename SummaryAt, typename Emit>
Status RunCascade(const UncertainString& r,
                  const ujoin::FrequencySummary* r_summary,
                  const std::vector<uint32_t>& candidates,
                  const StringAt& string_at, const SummaryAt& summary_at,
                  const JoinOptions& o, int64_t request, Tracer* tracer,
                  JoinStats* st, int64_t* similar_walks, const Emit& emit) {
  ReplayVerifier verifier(r, o, tracer, request);
  for (uint32_t j : candidates) {
    const UncertainString& s = string_at(j);
    if (o.use_freq_filter) {
      ujoin::FreqFilterOutcome freq;
      {
        Scope span(tracer, "filter.freq", request);
        freq = ujoin::EvaluateFreqFilter(*r_summary, summary_at(j), o.k);
      }
      if (freq.fd_lower_bound > o.k) {
        ++st->freq_lower_pruned;
        continue;
      }
      if (freq.upper_bound <= o.tau) {
        ++st->freq_upper_pruned;
        continue;
      }
    }
    ++st->freq_candidates;

    bool need_verify = true;
    double accepted_lower_bound = 0.0;
    if (o.use_cdf_filter) {
      std::optional<ujoin::CdfFilterOutcome> cdf;
      {
        Scope span(tracer, "filter.cdf", request);
        cdf.emplace(ujoin::EvaluateCdfFilter(r, s, o.k, o.tau));
      }
      if (cdf->decision == ujoin::CdfDecision::kReject) {
        ++st->cdf_rejected;
        continue;
      }
      if (cdf->decision == ujoin::CdfDecision::kAccept) {
        ++st->cdf_accepted;
        if (!o.always_verify) {
          accepted_lower_bound = cdf->bounds.lower[static_cast<size_t>(o.k)];
          need_verify = false;
        }
      } else {
        ++st->cdf_undecided;
      }
    }
    if (!need_verify) {
      ++st->result_pairs;
      emit(j, accepted_lower_bound, /*exact=*/false);
      continue;
    }
    ++st->verified_pairs;
    Result<double> prob = verifier.Probability(s, &st->verify_stats);
    if (!prob.ok()) return prob.status();
    if (*prob > o.tau) {
      ++st->result_pairs;
      ++*similar_walks;
      emit(j, *prob, /*exact=*/true);
    }
  }
  return Status::OK();
}

bool SupportedConfig(const JoinOptions& o) {
  return o.verify_method == ujoin::VerifyMethod::kTrie &&
         !o.early_stop_verification;
}

}  // namespace

Result<JoinReplay> ReplaySelfJoin(const std::vector<UncertainString>& collection,
                                  const ujoin::Alphabet& alphabet,
                                  const JoinOptions& o, int threads,
                                  Tracer* tracer) {
  if (!SupportedConfig(o)) {
    return Status::InvalidArgument("replay covers the trie verifier only");
  }
  JoinReplay out;
  JoinStats& st = out.stats;
  const uint32_t n = static_cast<uint32_t>(collection.size());
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return collection[a].length() < collection[b].length();
  });
  std::vector<int> lengths(n);
  for (uint32_t i = 0; i < n; ++i) lengths[i] = collection[order[i]].length();

  const int workers = std::min(threads, static_cast<int>(std::max(n, 1u)));
  const uint32_t wave_size = static_cast<uint32_t>(std::max(64, 8 * workers));
  const double qgram_tau = o.qgram_probabilistic_pruning ? o.tau : 0.0;
  ujoin::InvertedSegmentIndex index(o.k, o.q, o.probe);
  std::vector<ujoin::FrequencySummary> summaries(o.use_freq_filter ? n : 0);
  ujoin::QueryWorkspace workspace;
  std::vector<uint32_t> candidates;

  for (uint32_t wave_start = 0; wave_start < n; wave_start += wave_size) {
    const uint32_t wave_end = std::min(n, wave_start + wave_size);
    Scope wave(tracer, "wave", wave_start / wave_size);
    if (o.use_qgram_filter) {
      for (uint32_t i = wave_start; i < wave_end; ++i) {
        Scope span(tracer, "index.insert", i);
        const Status inserted = index.Insert(i, collection[order[i]]);
        if (!inserted.ok()) return inserted;
      }
    }
    st.peak_index_memory = std::max(st.peak_index_memory, index.MemoryUsage());
    if (o.use_freq_filter) {
      for (uint32_t i = wave_start; i < wave_end; ++i) {
        Scope span(tracer, "filter.freq_summary", i);
        summaries[i] =
            ujoin::FrequencySummary::Build(collection[order[i]], alphabet);
      }
    }
    for (uint32_t i = wave_start; i < wave_end; ++i) {
      Scope probe(tracer, "join.probe", i);
      const UncertainString& r = collection[order[i]];
      const int len = lengths[i];
      const auto window_begin =
          std::lower_bound(lengths.begin(), lengths.begin() + i, len - o.k);
      st.length_compatible_pairs += (lengths.begin() + i) - window_begin;
      candidates.clear();
      if (o.use_qgram_filter) {
        for (int l = std::max(1, len - o.k); l <= len; ++l) {
          Scope span(tracer, "index.query", i);
          for (const ujoin::IndexCandidate& c :
               index.Query(r, l, qgram_tau, &workspace, &st.index_stats, i)) {
            candidates.push_back(c.id);
          }
        }
      } else {
        for (uint32_t j = static_cast<uint32_t>(window_begin - lengths.begin());
             j < i; ++j) {
          candidates.push_back(j);
        }
      }
      st.qgram_candidates += static_cast<int64_t>(candidates.size());
      const Status cascade = RunCascade(
          r, o.use_freq_filter ? &summaries[i] : nullptr, candidates,
          [&](uint32_t j) -> const UncertainString& {
            return collection[order[j]];
          },
          [&](uint32_t j) -> const ujoin::FrequencySummary& {
            return summaries[j];
          },
          o, i, tracer, &st, &out.similar_walks,
          [&](uint32_t j, double p, bool exact) {
            out.pairs.push_back(ujoin::JoinPair{std::min(order[i], order[j]),
                                                std::max(order[i], order[j]),
                                                p, exact});
          });
      if (!cascade.ok()) return cascade;
    }
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  return out;
}

Result<SearchReplay> ReplaySearch(const std::vector<UncertainString>& collection,
                                  const ujoin::Alphabet& alphabet,
                                  const JoinOptions& o,
                                  const std::vector<UncertainString>& queries,
                                  Tracer* tracer) {
  if (!SupportedConfig(o)) {
    return Status::InvalidArgument("replay covers the trie verifier only");
  }
  SearchReplay out;
  JoinStats& st = out.stats;
  ujoin::InvertedSegmentIndex index(o.k, o.q, o.probe);
  std::vector<ujoin::FrequencySummary> summaries;
  std::vector<std::vector<uint32_t>> ids_by_length;
  for (uint32_t id = 0; id < collection.size(); ++id) {
    const UncertainString& s = collection[id];
    if (o.use_qgram_filter) {
      Scope span(tracer, "index.insert", id);
      const Status inserted = index.Insert(id, s);
      if (!inserted.ok()) return inserted;
    }
    if (o.use_freq_filter) {
      Scope span(tracer, "filter.freq_summary", id);
      summaries.push_back(ujoin::FrequencySummary::Build(s, alphabet));
    }
    const size_t len = static_cast<size_t>(s.length());
    if (ids_by_length.size() <= len) ids_by_length.resize(len + 1);
    ids_by_length[len].push_back(id);
  }
  {
    Scope span(tracer, "index.freeze");
    index.Freeze();
  }
  st.peak_index_memory = index.MemoryUsage();

  const double qgram_tau = o.qgram_probabilistic_pruning ? o.tau : 0.0;
  const int max_length = static_cast<int>(ids_by_length.size()) - 1;
  ujoin::QueryWorkspace workspace;
  std::vector<uint32_t> candidates;
  out.hits.resize(queries.size());
  Scope wave(tracer, "wave", 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int64_t request = static_cast<int64_t>(qi);
    Scope query_span(tracer, "search.query", request);
    const UncertainString& query = queries[qi];
    std::optional<ujoin::FrequencySummary> query_summary;
    if (o.use_freq_filter) {
      Scope span(tracer, "filter.freq_summary", request);
      query_summary.emplace(ujoin::FrequencySummary::Build(query, alphabet));
    }
    candidates.clear();
    const int lo = std::max(1, query.length() - o.k);
    const int hi = std::min(max_length, query.length() + o.k);
    for (int l = lo; l <= hi; ++l) {
      const std::vector<uint32_t>& bucket = ids_by_length[static_cast<size_t>(l)];
      st.length_compatible_pairs += static_cast<int64_t>(bucket.size());
      if (o.use_qgram_filter) {
        Scope span(tracer, "index.query", request);
        for (const ujoin::IndexCandidate& c :
             index.Query(query, l, qgram_tau, &workspace, &st.index_stats)) {
          candidates.push_back(c.id);
        }
      } else {
        candidates.insert(candidates.end(), bucket.begin(), bucket.end());
      }
    }
    st.qgram_candidates += static_cast<int64_t>(candidates.size());
    std::vector<ujoin::SearchHit>& hits = out.hits[qi];
    const Status cascade = RunCascade(
        query, query_summary ? &*query_summary : nullptr, candidates,
        [&](uint32_t id) -> const UncertainString& { return collection[id]; },
        [&](uint32_t id) -> const ujoin::FrequencySummary& {
          return summaries[id];
        },
        o, request, tracer, &st, &out.similar_walks,
        [&](uint32_t id, double p, bool exact) {
          hits.push_back(ujoin::SearchHit{id, p, exact});
        });
    if (!cascade.ok()) return cascade;
    std::sort(hits.begin(), hits.end());
  }
  return out;
}

bool SamePairs(const std::vector<ujoin::JoinPair>& a,
               const std::vector<ujoin::JoinPair>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ujoin::JoinPair& x, const ujoin::JoinPair& y) {
                      return x.lhs == y.lhs && x.rhs == y.rhs &&
                             std::bit_cast<uint64_t>(x.probability) ==
                                 std::bit_cast<uint64_t>(y.probability) &&
                             x.exact == y.exact;
                    });
}

bool SameHits(const std::vector<ujoin::SearchHit>& a,
              const std::vector<ujoin::SearchHit>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ujoin::SearchHit& x, const ujoin::SearchHit& y) {
                      return x.id == y.id &&
                             std::bit_cast<uint64_t>(x.probability) ==
                                 std::bit_cast<uint64_t>(y.probability) &&
                             x.exact == y.exact;
                    });
}

std::string FunnelDiff(const JoinStats& program, const JoinStats& replay) {
  const struct {
    const char* name;
    int64_t JoinStats::*field;
  } kFields[] = {
      {"length_compatible_pairs", &JoinStats::length_compatible_pairs},
      {"qgram_candidates", &JoinStats::qgram_candidates},
      {"freq_candidates", &JoinStats::freq_candidates},
      {"cdf_accepted", &JoinStats::cdf_accepted},
      {"cdf_rejected", &JoinStats::cdf_rejected},
      {"cdf_undecided", &JoinStats::cdf_undecided},
      {"verified_pairs", &JoinStats::verified_pairs},
      {"result_pairs", &JoinStats::result_pairs},
  };
  for (const auto& f : kFields) {
    if (program.*f.field != replay.*f.field) {
      return std::string(f.name) + " program=" +
             std::to_string(program.*f.field) +
             " replay=" + std::to_string(replay.*f.field);
    }
  }
  return "";
}

void AddLayerMetrics(const Tracer& tracer, const JoinStats& st,
                     int64_t similar_walks, double index_bytes,
                     const ProgramTimes& times, Outcome* out) {
  struct Agg {
    int64_t self_ns = 0;
    int64_t calls = 0;
    std::vector<double> dur_us;
  };
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfNs();
  // A span lies inside the program's measured call when it has a "wave"
  // ancestor; set-up (parse, the searcher's index build) lies outside.
  std::vector<char> in_wave(spans.size(), 0);
  std::map<std::string, Agg> by_name;
  int64_t busy_ns = 0;
  int64_t verify_ns = 0;
  struct Wave {
    double max_us = 0;
    double sum_us = 0;
    int64_t requests = 0;
  };
  std::map<int32_t, Wave> waves;  // keyed by the wave span's index
  double traced_wall_s = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const double dur_us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    if (name == "wave") traced_wall_s += 1e-6 * dur_us;
    if (s.parent >= 0) {
      const size_t p = static_cast<size_t>(s.parent);
      in_wave[i] = in_wave[p] || std::string(spans[p].name) == "wave";
      if (std::string(spans[p].name) == "wave" &&
          (name == "join.probe" || name == "search.query")) {
        Wave& w = waves[s.parent];
        w.max_us = std::max(w.max_us, dur_us);
        w.sum_us += dur_us;
        ++w.requests;
      }
    }
    Agg& agg = by_name[name];
    agg.self_ns += self[i];
    ++agg.calls;
    if (name == "index.query" || name == "verify.walk") {
      agg.dur_us.push_back(dur_us);
    }
    const bool layer = name.rfind("index.", 0) == 0 ||
                       name.rfind("filter.", 0) == 0 ||
                       name.rfind("verify.", 0) == 0;
    if (layer && in_wave[i]) {
      busy_ns += self[i];
      if (name.rfind("verify.", 0) == 0) verify_ns += self[i];
    }
  }
  const auto secs = [&](const char* name) {
    return 1e-9 * static_cast<double>(by_name[name].self_ns);
  };
  const auto calls = [&](const char* name) { return by_name[name].calls; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double busy_s = 1e-9 * static_cast<double>(busy_ns);
  const int64_t queries = calls("index.query");
  const int64_t walks = calls("verify.walk");
  const int64_t freq_calls = calls("filter.freq");
  const int64_t cdf_calls = calls("filter.cdf");

  out->Add("text.parse_s", secs("text.parse"), "s", calls("text.parse"));
  out->Add("index.insert_s", secs("index.insert"), "s", calls("index.insert"));
  out->Add("index.insert_calls", static_cast<double>(calls("index.insert")),
           "count", 1);
  out->Add("index.freeze_s", secs("index.freeze"), "s", calls("index.freeze"));
  out->Add("index.query_s", secs("index.query"), "s", queries);
  out->Add("index.query_calls", static_cast<double>(queries), "count", 1);
  out->Add("index.query_p99_us", Quantile(by_name["index.query"].dur_us, 0.99),
           "us", queries);
  out->Add("index.candidates_per_query",
           ratio(static_cast<double>(st.qgram_candidates),
                 static_cast<double>(queries)),
           "count", queries);
  out->Add("index.candidate_yield",
           ratio(static_cast<double>(st.result_pairs),
                 static_cast<double>(st.qgram_candidates)),
           "ratio", st.qgram_candidates);
  out->Add("index.bytes", index_bytes, "bytes", 1);
  out->Add("filter.freq_summary_s", secs("filter.freq_summary"), "s",
           calls("filter.freq_summary"));
  out->Add("filter.freq_s", secs("filter.freq"), "s", freq_calls);
  out->Add("filter.freq_calls", static_cast<double>(freq_calls), "count", 1);
  out->Add("filter.freq_pruned_ratio",
           ratio(static_cast<double>(st.freq_lower_pruned +
                                     st.freq_upper_pruned),
                 static_cast<double>(freq_calls)),
           "ratio", freq_calls);
  out->Add("filter.cdf_s", secs("filter.cdf"), "s", cdf_calls);
  out->Add("filter.cdf_calls", static_cast<double>(cdf_calls), "count", 1);
  out->Add("filter.cdf_decided_ratio",
           ratio(static_cast<double>(st.cdf_accepted + st.cdf_rejected),
                 static_cast<double>(cdf_calls)),
           "ratio", cdf_calls);
  out->Add("verify.trie_build_s", secs("verify.trie_build"), "s",
           calls("verify.trie_build"));
  out->Add("verify.trie_builds",
           static_cast<double>(calls("verify.trie_build")), "count", 1);
  out->Add("verify.walk_s", secs("verify.walk"), "s", walks);
  out->Add("verify.walks", static_cast<double>(walks), "count", 1);
  const std::vector<double>& walk_us = by_name["verify.walk"].dur_us;
  out->Add("verify.walk_p50_us", Quantile(walk_us, 0.5), "us", walks);
  out->Add("verify.walk_p99_us", Quantile(walk_us, 0.99), "us", walks);
  out->Add("verify.walk_max_ms", 1e-3 * Quantile(walk_us, 1.0), "ms", walks);
  out->Add("verify.nodes_per_walk",
           ratio(static_cast<double>(st.verify_stats.explored_s_nodes),
                 static_cast<double>(walks)),
           "count", walks);
  out->Add("verify.hit_ratio",
           ratio(static_cast<double>(similar_walks), static_cast<double>(walks)),
           "ratio", walks);
  out->Add("verify.busy_share", ratio(1e-9 * static_cast<double>(verify_ns),
                                      busy_s),
           "ratio", walks);

  std::vector<double> imbalance;
  double critical_us = 0;
  for (const auto& [id, w] : waves) {
    critical_us += std::max(w.max_us, w.sum_us / kThreads);
    if (w.requests >= 2 && w.sum_us > 0) {
      imbalance.push_back(w.max_us / (w.sum_us / static_cast<double>(w.requests)));
    }
  }
  const int64_t nwaves = static_cast<int64_t>(waves.size());
  out->Add("join.busy_s", busy_s, "s", 1);
  out->Add("join.unattributed_frac",
           1.0 - ratio(busy_s, times.single_thread_wall_s), "ratio", 1);
  out->Add("join.wave_imbalance_p50", Quantile(imbalance, 0.5), "ratio", nwaves);
  out->Add("join.wave_imbalance_p99", Quantile(imbalance, 0.99), "ratio",
           nwaves);
  out->Add("join.critical_path_s", 1e-6 * critical_us, "s", nwaves);
  out->Add("join.parallel_efficiency",
           ratio(busy_s, kThreads * times.parallel_wall_s), "ratio", 1);
  out->Add("trace.overhead_frac",
           ratio(traced_wall_s, times.single_thread_wall_s) - 1.0,
           "ratio", 1);
}

}  // namespace perfbench
