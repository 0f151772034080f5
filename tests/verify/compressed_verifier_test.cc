#include "verify/compressed_verifier.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"
#include "verify/instance_trie.h"

namespace ujoin {
namespace {

TEST(CompressedTrieTest, DeterministicStringIsOneNode) {
  Result<CompressedInstanceTrie> trie = CompressedInstanceTrie::Build(
      UncertainString::FromDeterministic("ACGTACGT"));
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_nodes(), 1);
  EXPECT_EQ(trie->LabelLength(0), 8);
  EXPECT_EQ(trie->LabelChar(0, 0), 'A');
  EXPECT_EQ(trie->LabelChar(0, 7), 'T');
  EXPECT_TRUE(trie->IsLeafNode(0));
  EXPECT_EQ(trie->EndDepth(0), 8);
}

TEST(CompressedTrieTest, NodeCountIsChoicePrefixCount) {
  Alphabet dna = Alphabet::Dna();
  // Two uncertain positions with 2 and 3 alternatives: 1 + 2 + 6 nodes,
  // regardless of how long the certain runs are.
  Result<UncertainString> s = UncertainString::Parse(
      "ACGT{(A,0.5),(C,0.5)}GGGGTTTT{(A,0.2),(C,0.3),(G,0.5)}AAAACCCC", dna);
  ASSERT_TRUE(s.ok());
  Result<CompressedInstanceTrie> trie = CompressedInstanceTrie::Build(*s);
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_nodes(), 1 + 2 + 6);
  // The plain trie needs a node per character per world path.
  Result<InstanceTrie> plain = InstanceTrie::Build(*s);
  ASSERT_TRUE(plain.ok());
  EXPECT_GT(plain->num_nodes(), 8 * trie->num_nodes());  // 77 vs 9 here
}

TEST(CompressedTrieTest, LeafProbabilitiesMatchWorlds) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(401);
  testing::RandomStringOptions opt;
  opt.min_length = 1;
  opt.max_length = 10;
  opt.theta = 0.4;
  for (int trial = 0; trial < 50; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    Result<CompressedInstanceTrie> trie = CompressedInstanceTrie::Build(s);
    ASSERT_TRUE(trie.ok());
    double leaf_sum = 0.0;
    int64_t leaves = 0;
    for (int32_t id = 0; id < trie->num_nodes(); ++id) {
      if (trie->IsLeafNode(id)) {
        leaf_sum += trie->node(id).prob;
        ++leaves;
        EXPECT_EQ(trie->EndDepth(id), s.length());
      }
    }
    EXPECT_EQ(leaves, s.WorldCount());
    EXPECT_NEAR(leaf_sum, 1.0, 1e-9);
  }
}

TEST(CompressedTrieTest, BuildsWherePlainTrieOverflows) {
  // 60 certain chars after 8 uncertain ones: the plain trie needs
  // ~5^8 * 60 nodes; the compressed trie stays below 2 * 5^8.
  UncertainString::Builder b;
  for (int i = 0; i < 8; ++i) {
    b.AddUncertain({{'A', 0.2}, {'C', 0.2}, {'G', 0.2}, {'T', 0.2},
                    {'B', 0.2}});
  }
  for (int i = 0; i < 60; ++i) b.AddCertain('A');
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  const int64_t cap = 1 << 20;
  EXPECT_FALSE(InstanceTrie::Build(*s, cap).ok());
  Result<CompressedInstanceTrie> trie =
      CompressedInstanceTrie::Build(*s, cap);
  ASSERT_TRUE(trie.ok());
  EXPECT_LT(trie->num_nodes(), 2 * 390625);
}

TEST(CompressedTrieTest, PrefixesAtDepthsCountsVirtualPositions) {
  // The verifier sizes its per-depth active-set buffers with this count:
  // every (node, label offset) position plus the empty prefix at depth 0.
  Alphabet dna = Alphabet::Dna();
  Rng rng(410);
  testing::RandomStringOptions opt;
  opt.min_length = 0;
  opt.max_length = 10;
  opt.theta = 0.4;
  for (int trial = 0; trial < 40; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    Result<CompressedInstanceTrie> trie = CompressedInstanceTrie::Build(s);
    ASSERT_TRUE(trie.ok());
    std::vector<int64_t> per_depth(static_cast<size_t>(s.length()) + 1, 0);
    per_depth[0] = 1;  // the empty prefix
    for (int32_t id = 0; id < trie->num_nodes(); ++id) {
      for (int depth = trie->StartDepth(id) + 1; depth <= trie->EndDepth(id);
           ++depth) {
        ++per_depth[static_cast<size_t>(depth)];
      }
    }
    for (int lo = -3; lo <= s.length() + 3; ++lo) {
      for (int hi = lo - 1; hi <= s.length() + 3; ++hi) {
        int64_t expected = 0;
        for (int d = std::max(lo, 0); d <= std::min(hi, s.length()); ++d) {
          expected += per_depth[static_cast<size_t>(d)];
        }
        EXPECT_EQ(trie->PrefixesAtDepths(lo, hi), expected)
            << s.ToString() << " [" << lo << ", " << hi << "]";
      }
    }
  }
}

class CompressedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedEquivalenceTest, MatchesPlainVerifierAndBruteForce) {
  const int k = GetParam();
  Alphabet dna = Alphabet::Dna();
  Rng rng(402 + static_cast<uint64_t>(k));
  testing::RandomStringOptions opt;
  opt.min_length = 1;
  opt.max_length = 9;
  opt.theta = 0.4;
  for (int trial = 0; trial < 120; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    Result<double> compressed = CompressedTrieVerifyProbability(r, s, k);
    ASSERT_TRUE(compressed.ok());
    const double truth = testing::BruteForceMatchProbability(r, s, k);
    EXPECT_NEAR(*compressed, truth, 1e-9)
        << "R=" << r.ToString() << " S=" << s.ToString() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, CompressedEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(CompressedVerifierTest, LongStringsVerifyExactly) {
  // Long strings with sparse uncertainty — the workload the compression
  // exists for.  Compare against the plain verifier where it still fits.
  Alphabet dna = Alphabet::Dna();
  Rng rng(403);
  testing::RandomStringOptions opt;
  opt.min_length = 40;
  opt.max_length = 60;
  opt.theta = 0.08;
  for (int trial = 0; trial < 20; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    testing::RandomStringOptions opt2 = opt;
    opt2.min_length = std::max(1, r.length() - 2);
    opt2.max_length = r.length() + 2;
    const UncertainString s = testing::RandomUncertainString(dna, opt2, rng);
    Result<double> compressed = CompressedTrieVerifyProbability(r, s, 2);
    Result<double> plain = TrieVerifyProbability(r, s, 2);
    ASSERT_TRUE(compressed.ok() && plain.ok());
    EXPECT_NEAR(*compressed, *plain, 1e-9);
  }
}

TEST(CompressedVerifierTest, DecideSimilarAgreesWithExact) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(404);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 8;
  opt.theta = 0.4;
  for (int trial = 0; trial < 150; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const int k = static_cast<int>(rng.UniformInt(0, 2));
    const double tau = rng.UniformDouble();
    Result<CompressedTrieVerifier> verifier =
        CompressedTrieVerifier::Create(r, k);
    ASSERT_TRUE(verifier.ok());
    const ThresholdVerdict verdict = verifier->DecideSimilar(s, tau);
    const double truth = testing::BruteForceMatchProbability(r, s, k);
    EXPECT_EQ(verdict.similar, truth > tau)
        << "R=" << r.ToString() << " S=" << s.ToString() << " k=" << k
        << " tau=" << tau;
    EXPECT_LE(verdict.lower, truth + 1e-9);
    EXPECT_GE(verdict.upper, truth - 1e-9);
  }
}

TEST(CompressedVerifierTest, EmptyAndDegenerateStrings) {
  EXPECT_DOUBLE_EQ(CompressedTrieVerifyProbability(UncertainString(),
                                                   UncertainString(), 0)
                       .value(),
                   1.0);
  const UncertainString a = UncertainString::FromDeterministic("AC");
  EXPECT_DOUBLE_EQ(
      CompressedTrieVerifyProbability(a, UncertainString(), 1).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      CompressedTrieVerifyProbability(a, UncertainString(), 2).value(), 1.0);
  EXPECT_DOUBLE_EQ(
      CompressedTrieVerifyProbability(UncertainString(), a, 2).value(), 1.0);
}

TEST(CompressedVerifierTest, MemorySmallerThanPlainOnSparseUncertainty) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kProtein;
  opt.size = 20;
  opt.theta = 0.1;
  opt.seed = 5;
  const Dataset data = GenerateDataset(opt);
  for (const UncertainString& s : data.strings) {
    Result<CompressedInstanceTrie> compressed =
        CompressedInstanceTrie::Build(s);
    Result<InstanceTrie> plain = InstanceTrie::Build(s);
    ASSERT_TRUE(compressed.ok() && plain.ok());
    EXPECT_LE(compressed->num_nodes(), plain->num_nodes());
  }
}

}  // namespace
}  // namespace ujoin
