// Differential test of LengthBucketIndex::QueryCandidates (the count pass)
// against a test-only copy of the two-level merge it replaced
// (tests/index/reference_merge.h), in both its linear and heap variants.
// Candidate bounds are compared through std::bit_cast, so a changed α fold
// order fails too; every IndexQueryStats counter and every per-segment
// merged-list length must match exactly.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/probe_set.h"
#include "index/segment_index.h"
#include "reference_merge.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"

namespace ujoin {
namespace {

constexpr double kTaus[] = {0.0, 0.1, 1.0};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameStats(const IndexQueryStats& got, const IndexQueryStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.lists_scanned, want.lists_scanned) << what;
  EXPECT_EQ(got.postings_scanned, want.postings_scanned) << what;
  EXPECT_EQ(got.ids_touched, want.ids_touched) << what;
  EXPECT_EQ(got.support_pruned, want.support_pruned) << what;
  EXPECT_EQ(got.probability_pruned, want.probability_pruned) << what;
  EXPECT_EQ(got.candidates, want.candidates) << what;
}

void ExpectSameCandidates(std::span<const IndexCandidate> got,
                          const std::vector<IndexCandidate>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " i=" << i;
    EXPECT_EQ(got[i].matched_segments, want[i].matched_segments)
        << what << " i=" << i;
    EXPECT_EQ(Bits(got[i].upper_bound), Bits(want[i].upper_bound))
        << what << " i=" << i;
  }
}

/// What the workloads reached, so the test can assert that its inputs hit
/// the interesting cases rather than pruning everything.
struct Coverage {
  int64_t candidates = 0;
  int64_t support_pruned = 0;
  int64_t probability_pruned = 0;
  int probe_wildcard_queries = 0;  ///< queries with a wildcard probe segment
  int index_wildcard_buckets = 0;  ///< buckets with index-side wildcard ids
  int short_queries = 0;           ///< queries with m - k <= 0
  int limited_queries = 0;         ///< queries with a finite id_limit
};

struct Workload {
  uint64_t seed;
  int64_t max_instances;  ///< ProbeSetOptions::max_instances_per_window
  bool freeze;
};

/// Runs `rounds` random (index, query stream) rounds of `workload` through
/// `ws` and checks every query against both reference variants.
void RunWorkload(const Workload& workload, int rounds, QueryWorkspace* ws,
                 Coverage* coverage) {
  const Alphabet dna = Alphabet::Dna();
  Rng rng(workload.seed);
  ProbeSetOptions probe_options;
  probe_options.max_instances_per_window = workload.max_instances;
  for (int round = 0; round < rounds; ++round) {
    const int k = static_cast<int>(rng.UniformInt(1, 3));
    const int q = static_cast<int>(rng.UniformInt(2, 3));
    // Lengths down to 1 give buckets with m <= k (Lemma 5 cannot prune).
    const int length = static_cast<int>(rng.UniformInt(1, 13));
    const uint32_t num_ids = static_cast<uint32_t>(rng.UniformInt(1, 60));

    testing::RandomStringOptions opt;
    opt.min_length = opt.max_length = length;
    opt.theta = 0.45;
    opt.max_alternatives = 3;
    InvertedSegmentIndex index(k, q, probe_options);
    // Sparse ids, so marks and id limits see gaps.
    uint32_t id = static_cast<uint32_t>(rng.Uniform(5));
    for (uint32_t i = 0; i < num_ids; ++i) {
      ASSERT_TRUE(
          index.Insert(id, testing::RandomUncertainString(dna, opt, rng)).ok());
      id += 1 + static_cast<uint32_t>(rng.Uniform(3));
    }
    // Unfrozen rounds query the building lists, frozen rounds the arena.
    if (workload.freeze) index.Freeze();
    const LengthBucketIndex& bucket = *index.bucket(length);
    const int m = bucket.num_segments();
    for (int x = 0; x < m; ++x) {
      if (!bucket.wildcard_ids(x).empty()) {
        ++coverage->index_wildcard_buckets;
        break;
      }
    }

    testing::RandomStringOptions probe_opt = opt;
    probe_opt.min_length = std::max(1, length - k);
    probe_opt.max_length = length + k;
    for (int query = 0; query < 12; ++query) {
      const UncertainString r =
          testing::RandomUncertainString(dna, probe_opt, rng);
      const uint32_t id_limit =
          rng.Bernoulli(0.4) ? static_cast<uint32_t>(rng.Uniform(id + 2))
                             : UINT32_MAX;
      FlatProbeSets probes;
      ProbeSetScratch scratch;
      probes.Reset(m);
      bool any_wildcard = false;
      for (int x = 0; x < m; ++x) {
        (void)BuildProbeSetInto(r, length,
                                bucket.segments()[static_cast<size_t>(x)], k,
                                probe_options, &scratch, &probes);
        any_wildcard = any_wildcard || probes.is_wildcard(x);
      }
      if (any_wildcard) ++coverage->probe_wildcard_queries;
      if (m - k <= 0) ++coverage->short_queries;
      if (id_limit != UINT32_MAX) ++coverage->limited_queries;

      for (const double tau : kTaus) {
        const std::string what =
            "seed=" + std::to_string(workload.seed) +
            " round=" + std::to_string(round) +
            " query=" + std::to_string(query) + " k=" + std::to_string(k) +
            " q=" + std::to_string(q) + " len=" + std::to_string(length) +
            " tau=" + std::to_string(tau) +
            " id_limit=" + std::to_string(id_limit) + " R=" + r.ToString();
        IndexQueryStats got_stats;
        std::vector<int64_t> got_lengths;
        ws->explain_merged = &got_lengths;
        const std::span<const IndexCandidate> got =
            bucket.QueryCandidates(probes, k, tau, ws, &got_stats, id_limit);
        ws->explain_merged = nullptr;
        for (const bool heap : {false, true}) {
          const std::string label = what + (heap ? " heap" : " linear");
          const testing::ReferenceMergeResult want =
              testing::ReferenceQueryCandidates(bucket, probes, k, tau, heap,
                                                id_limit);
          ExpectSameCandidates(got, want.candidates, label);
          ExpectSameStats(got_stats, want.stats, label);
          EXPECT_EQ(got_lengths, want.merged_lengths) << label;
        }
        coverage->candidates += got_stats.candidates;
        coverage->support_pruned += got_stats.support_pruned;
        coverage->probability_pruned += got_stats.probability_pruned;
      }
    }
  }
}

void ExpectCovered(const Coverage& coverage) {
  EXPECT_GT(coverage.candidates, 0);
  EXPECT_GT(coverage.support_pruned, 0);
  EXPECT_GT(coverage.probability_pruned, 0);
  EXPECT_GT(coverage.short_queries, 0);
  EXPECT_GT(coverage.limited_queries, 0);
}

TEST(MergeDifferentialTest, UnfrozenIndexMatchesReference) {
  QueryWorkspace ws;
  Coverage coverage;
  RunWorkload(Workload{101, 1 << 14, /*freeze=*/false}, 25, &ws, &coverage);
  ExpectCovered(coverage);
}

TEST(MergeDifferentialTest, FrozenIndexMatchesReference) {
  QueryWorkspace ws;
  Coverage coverage;
  RunWorkload(Workload{202, 1 << 14, /*freeze=*/true}, 25, &ws, &coverage);
  ExpectCovered(coverage);
}

// A tiny instance cap turns uncertain segments into wildcards on both
// sides: probe segments that match every id with α = 1, and index-side
// wildcard ids that override a segment's α sum.
TEST(MergeDifferentialTest, WildcardSegmentsMatchReference) {
  Coverage coverage;
  for (const bool freeze : {false, true}) {
    QueryWorkspace ws;
    RunWorkload(Workload{303, /*max_instances=*/2, freeze}, 25, &ws,
                &coverage);
  }
  ExpectCovered(coverage);
  EXPECT_GT(coverage.probe_wildcard_queries, 0);
  EXPECT_GT(coverage.index_wildcard_buckets, 0);
}

// The stamp counter wraps in the first query while every mark holds a
// stale stamp equal to the first stamp handed out after the wrap — the
// state a counter that has gone round leaves for ids untouched since its
// first segment.  The wrap-around clear must keep every count exact.
TEST(MergeDifferentialTest, StampWrapAroundKeepsCountsExact) {
  QueryWorkspace ws;
  Coverage coverage;
  RunWorkload(Workload{404, 1 << 14, /*freeze=*/false}, 20, &ws, &coverage);
  ASSERT_FALSE(ws.marks.empty());
  for (QueryWorkspace::IdMark& mark : ws.marks) mark.stamp = 1;
  ws.stamp = UINT32_MAX - 2;
  RunWorkload(Workload{404, 1 << 14, /*freeze=*/false}, 20, &ws, &coverage);
  EXPECT_LT(ws.stamp, UINT32_MAX - 2) << "the stamp counter never wrapped";
  ExpectCovered(coverage);
}

}  // namespace
}  // namespace ujoin
