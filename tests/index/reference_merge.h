#ifndef UJOIN_TESTS_INDEX_REFERENCE_MERGE_H_
#define UJOIN_TESTS_INDEX_REFERENCE_MERGE_H_

// Reference copy of LengthBucketIndex::QueryCandidates as it stood before
// the count pass: the paper's two-level merge (Section 4).  Stage 1 merges
// each segment's posting extents by id into an (id, α_x) list, by linear
// min-scan or by binary heap; stage 2 scans the m merged lists with top
// pointers (again linear or heap) to apply Lemma 5 and Theorem 2.  Slow but
// simple; the merge differential test holds the production count pass
// bit-identical to it.  Test-only code.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "filter/event_dp.h"
#include "filter/probe_set.h"
#include "index/segment_index.h"
#include "util/math_util.h"

namespace ujoin::testing {

/// Everything one reference query produces.
struct ReferenceMergeResult {
  std::vector<IndexCandidate> candidates;
  IndexQueryStats stats;
  std::vector<int64_t> merged_lengths;  ///< per segment; empty if m <= k
};

namespace reference_internal {

struct MergedEntry {
  uint32_t id;
  double alpha;
};

struct Cursor {
  const Posting* pos;
  const Posting* end;
  double weight;
};

// (id << 32 | list) keys: equal ids pop in ascending list order, the order
// the linear scan folds them in.
constexpr uint64_t HeapKey(uint32_t id, uint32_t list) {
  return (static_cast<uint64_t>(id) << 32) | list;
}
constexpr uint32_t HeapId(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
constexpr uint32_t HeapList(uint64_t key) {
  return static_cast<uint32_t>(key);
}

inline void HeapPush(std::vector<uint64_t>* heap, uint64_t key) {
  heap->push_back(key);
  std::push_heap(heap->begin(), heap->end(), std::greater<uint64_t>());
}

inline uint64_t HeapPop(std::vector<uint64_t>* heap) {
  std::pop_heap(heap->begin(), heap->end(), std::greater<uint64_t>());
  const uint64_t key = heap->back();
  heap->pop_back();
  return key;
}

// Stage 1 for one non-wildcard probe segment.
inline void MergeSegment(std::vector<Cursor> cursors,
                         const std::vector<uint32_t>& wildcards,
                         uint32_t id_limit, bool heap_merge,
                         IndexQueryStats* stats,
                         std::vector<MergedEntry>* out) {
  size_t wildcard_pos = 0;
  const auto next_wildcard = [&](uint32_t min_id) {
    if (wildcard_pos < wildcards.size() && wildcards[wildcard_pos] < min_id) {
      return wildcards[wildcard_pos];
    }
    return min_id;
  };
  const auto apply_wildcard = [&](uint32_t id, double alpha) {
    if (wildcard_pos < wildcards.size() && wildcards[wildcard_pos] == id) {
      ++wildcard_pos;
      return 1.0;
    }
    return alpha;
  };
  if (!heap_merge) {
    for (;;) {
      uint32_t min_id = UINT32_MAX;
      for (const Cursor& c : cursors) {
        if (c.pos != c.end && c.pos->id < min_id) min_id = c.pos->id;
      }
      min_id = next_wildcard(min_id);
      if (min_id == UINT32_MAX || min_id >= id_limit) break;
      double alpha = 0.0;
      for (Cursor& c : cursors) {
        if (c.pos != c.end && c.pos->id == min_id) {
          alpha += c.weight * c.pos->prob;
          ++c.pos;
          ++stats->postings_scanned;
        }
      }
      out->push_back(
          MergedEntry{min_id, ClampProb(apply_wildcard(min_id, alpha))});
    }
    return;
  }
  std::vector<uint64_t> heap;
  for (uint32_t ci = 0; ci < cursors.size(); ++ci) {
    HeapPush(&heap, HeapKey(cursors[ci].pos->id, ci));
  }
  for (;;) {
    uint32_t min_id = heap.empty() ? UINT32_MAX : HeapId(heap.front());
    min_id = next_wildcard(min_id);
    if (min_id == UINT32_MAX || min_id >= id_limit) break;
    double alpha = 0.0;
    while (!heap.empty() && HeapId(heap.front()) == min_id) {
      const uint32_t ci = HeapList(HeapPop(&heap));
      Cursor& c = cursors[ci];
      alpha += c.weight * c.pos->prob;
      ++c.pos;
      ++stats->postings_scanned;
      if (c.pos != c.end) HeapPush(&heap, HeapKey(c.pos->id, ci));
    }
    out->push_back(
        MergedEntry{min_id, ClampProb(apply_wildcard(min_id, alpha))});
  }
}

}  // namespace reference_internal

/// The two-level merge over `bucket`, with both stages linear
/// (`heap_merge` false) or both heap-based (true).  Same contract as
/// LengthBucketIndex::QueryCandidates.
inline ReferenceMergeResult ReferenceQueryCandidates(
    const LengthBucketIndex& bucket, const FlatProbeSets& probes, int k,
    double tau, bool heap_merge, uint32_t id_limit = UINT32_MAX) {
  using reference_internal::Cursor;
  using reference_internal::MergedEntry;
  ReferenceMergeResult result;
  IndexQueryStats& stats = result.stats;
  const int m = bucket.num_segments();
  const int required = m - k;
  const std::vector<uint32_t>& ids = bucket.ids();
  if (ids.empty() || ids.front() >= id_limit) return result;
  if (required <= 0) {
    for (uint32_t id : ids) {
      if (id >= id_limit) break;
      result.candidates.push_back(IndexCandidate{id, m, 1.0});
    }
    stats.ids_touched += static_cast<int64_t>(result.candidates.size());
    stats.candidates += static_cast<int64_t>(result.candidates.size());
    return result;
  }

  std::vector<std::vector<MergedEntry>> merged(static_cast<size_t>(m));
  for (int x = 0; x < m; ++x) {
    std::vector<MergedEntry>& out = merged[static_cast<size_t>(x)];
    if (probes.is_wildcard(x)) {
      for (uint32_t id : ids) {
        if (id >= id_limit) break;
        out.push_back(MergedEntry{id, 1.0});
      }
    } else {
      std::vector<Cursor> cursors;
      for (const FlatProbeSets::Entry& probe : probes.segment_entries(x)) {
        const std::span<const Posting> list =
            bucket.Find(x, probes.text(probe));
        // A list holding only ids past the limit does not exist yet in an
        // index that stops at `id_limit`.
        if (list.empty() || list.front().id >= id_limit) continue;
        cursors.push_back(
            Cursor{list.data(), list.data() + list.size(), probe.prob});
        ++stats.lists_scanned;
      }
      reference_internal::MergeSegment(std::move(cursors),
                                       bucket.wildcard_ids(x), id_limit,
                                       heap_merge, &stats, &out);
    }
    result.merged_lengths.push_back(static_cast<int64_t>(out.size()));
  }

  std::vector<size_t> tops(static_cast<size_t>(m), 0);
  std::vector<double> alphas(static_cast<size_t>(m), 0.0);
  const auto evaluate = [&](uint32_t id, int matched) {
    ++stats.ids_touched;
    if (matched < required) {
      ++stats.support_pruned;
      return;
    }
    const double bound = ProbAtLeastEvents(alphas, required);
    if (bound <= tau) {
      ++stats.probability_pruned;
      return;
    }
    result.candidates.push_back(IndexCandidate{id, matched, bound});
    ++stats.candidates;
  };
  if (!heap_merge) {
    for (;;) {
      uint32_t min_id = UINT32_MAX;
      for (int x = 0; x < m; ++x) {
        const auto& list = merged[static_cast<size_t>(x)];
        const size_t top = tops[static_cast<size_t>(x)];
        if (top < list.size()) min_id = std::min(min_id, list[top].id);
      }
      if (min_id == UINT32_MAX) break;
      int matched = 0;
      for (int x = 0; x < m; ++x) {
        const auto& list = merged[static_cast<size_t>(x)];
        size_t& top = tops[static_cast<size_t>(x)];
        double& alpha = alphas[static_cast<size_t>(x)];
        alpha = 0.0;
        if (top < list.size() && list[top].id == min_id) {
          alpha = list[top].alpha;
          if (alpha > 0.0) ++matched;
          ++top;
        }
      }
      evaluate(min_id, matched);
    }
    return result;
  }
  std::vector<uint64_t> heap;
  for (int x = 0; x < m; ++x) {
    const auto& list = merged[static_cast<size_t>(x)];
    if (!list.empty()) {
      reference_internal::HeapPush(
          &heap, reference_internal::HeapKey(list.front().id,
                                             static_cast<uint32_t>(x)));
    }
  }
  std::vector<int> touched;
  while (!heap.empty()) {
    const uint32_t min_id = reference_internal::HeapId(heap.front());
    int matched = 0;
    touched.clear();
    while (!heap.empty() &&
           reference_internal::HeapId(heap.front()) == min_id) {
      const int x = static_cast<int>(
          reference_internal::HeapList(reference_internal::HeapPop(&heap)));
      const auto& list = merged[static_cast<size_t>(x)];
      size_t& top = tops[static_cast<size_t>(x)];
      alphas[static_cast<size_t>(x)] = list[top].alpha;
      touched.push_back(x);
      if (list[top].alpha > 0.0) ++matched;
      ++top;
      if (top < list.size()) {
        reference_internal::HeapPush(
            &heap, reference_internal::HeapKey(list[top].id,
                                               static_cast<uint32_t>(x)));
      }
    }
    evaluate(min_id, matched);
    for (int x : touched) alphas[static_cast<size_t>(x)] = 0.0;
  }
  return result;
}

}  // namespace ujoin::testing

#endif  // UJOIN_TESTS_INDEX_REFERENCE_MERGE_H_
