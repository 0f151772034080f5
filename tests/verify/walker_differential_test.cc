// Differential test of the trie walkers against test-only reference copies
// of their pre-rewrite versions (tests/verify/reference_walkers.h).  Every
// probability and bound is compared through std::bit_cast, so a changed
// floating-point summation order (or +0.0 vs -0.0) fails too, and every
// VerifyStats counter must match exactly.

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "reference_walkers.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"
#include "verify/compressed_verifier.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

constexpr double kTaus[] = {0.0, 0.1, 0.5, 1.0};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameStats(const VerifyStats& got, const VerifyStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.r_trie_nodes, want.r_trie_nodes) << what;
  EXPECT_EQ(got.explored_s_nodes, want.explored_s_nodes) << what;
  EXPECT_EQ(got.active_entries, want.active_entries) << what;
  EXPECT_EQ(got.world_pairs, want.world_pairs) << what;
}

void ExpectSameVerdict(const ThresholdVerdict& got,
                       const ThresholdVerdict& want, const std::string& what) {
  EXPECT_EQ(got.similar, want.similar) << what;
  EXPECT_EQ(Bits(got.lower), Bits(want.lower)) << what;
  EXPECT_EQ(Bits(got.upper), Bits(want.upper)) << what;
  EXPECT_EQ(got.exact, want.exact) << what;
}

/// What one differential run covered, so each test can assert that its
/// inputs reached the interesting cases rather than pruning everything.
struct Coverage {
  int nonzero = 0;     ///< pairs with Pr(ed <= k) > 0
  int fractional = 0;  ///< pairs with 0 < Pr < 1
  int stopped = 0;     ///< DecideSimilar calls that stopped early
};

/// Compares Probability and DecideSimilar (every τ in kTaus) of both
/// verifiers against the reference walkers for one (R, S, k).
void CheckPair(const UncertainString& r, const UncertainString& s, int k,
               const std::string& label, Coverage* coverage) {
  const std::string what = label + " k=" + std::to_string(k) + " R=" +
                           r.ToString() + " S=" + s.ToString();
  Result<TrieVerifier> plain = TrieVerifier::Create(r, k);
  Result<CompressedTrieVerifier> compressed =
      CompressedTrieVerifier::Create(r, k);
  ASSERT_TRUE(plain.ok()) << what;
  ASSERT_TRUE(compressed.ok()) << what;

  VerifyStats got, want;
  const double p = plain->Probability(s, &got);
  const double p_ref =
      testing::ReferenceTrieProbability(plain->trie(), s, k, &want);
  EXPECT_EQ(Bits(p), Bits(p_ref)) << "plain " << what;
  ExpectSameStats(got, want, "plain " + what);

  VerifyStats cgot, cwant;
  const double cp = compressed->Probability(s, &cgot);
  const double cp_ref =
      testing::ReferenceCompressedProbability(compressed->trie(), s, k, &cwant);
  EXPECT_EQ(Bits(cp), Bits(cp_ref)) << "compressed " << what;
  ExpectSameStats(cgot, cwant, "compressed " + what);

  for (const double tau : kTaus) {
    const std::string at = what + " tau=" + std::to_string(tau);
    VerifyStats dgot, dwant;
    const ThresholdVerdict v = plain->DecideSimilar(s, tau, &dgot);
    ExpectSameVerdict(
        v, testing::ReferenceTrieDecide(plain->trie(), s, k, tau, &dwant),
        "plain " + at);
    ExpectSameStats(dgot, dwant, "plain " + at);

    VerifyStats cdgot, cdwant;
    const ThresholdVerdict cv = compressed->DecideSimilar(s, tau, &cdgot);
    ExpectSameVerdict(cv,
                      testing::ReferenceCompressedDecide(compressed->trie(), s,
                                                         k, tau, &cdwant),
                      "compressed " + at);
    ExpectSameStats(cdgot, cdwant, "compressed " + at);
    if (!v.exact) ++coverage->stopped;
  }
  if (p_ref > 0.0) ++coverage->nonzero;
  if (p_ref > 0.0 && p_ref < 1.0) ++coverage->fractional;
}

/// An uncertain string whose most likely world is `base`: each position
/// turns uncertain with probability `theta`, keeping `base`'s character as
/// one alternative.
UncertainString Blur(const std::string& base, const Alphabet& alphabet,
                     double theta, Rng& rng) {
  UncertainString::Builder builder;
  for (const char ch : base) {
    const char other = testing::RandomSymbol(alphabet, rng);
    if (other == ch || !rng.Bernoulli(theta)) {
      builder.AddCertain(ch);
      continue;
    }
    const double p = 0.5 + 0.4 * rng.UniformDouble();
    builder.AddUncertain({CharProb{ch, p}, CharProb{other, 1.0 - p}});
  }
  Result<UncertainString> out = builder.Build();
  UJOIN_CHECK(out.ok());
  return std::move(out).value();
}

TEST(WalkerDifferentialTest, RandomPairsMatchReference) {
  const Alphabet dna = Alphabet::Dna();
  Rng rng(12001);
  testing::RandomStringOptions opt;
  opt.min_length = 0;
  opt.max_length = 9;
  opt.theta = 0.4;
  Coverage coverage;
  for (int trial = 0; trial < 300; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, 3));
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    CheckPair(r, s, k, "random", &coverage);
  }
  EXPECT_GT(coverage.nonzero, 50);
  EXPECT_GT(coverage.fractional, 20);
}

TEST(WalkerDifferentialTest, NearDuplicatePairsMatchReference) {
  // S derived from R's world by a few edits: the walks run deep, with large
  // active sets, instead of pruning at the first characters.
  const Alphabet names = Alphabet::Names();
  Rng rng(12002);
  Coverage coverage;
  for (int trial = 0; trial < 200; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, 3));
    const int length = static_cast<int>(rng.UniformInt(4, 14));
    const std::string base = testing::RandomString(names, length, rng);
    const std::string edited =
        testing::RandomEdits(base, names, /*max_edits=*/k + 1, rng);
    CheckPair(Blur(base, names, 0.3, rng), Blur(edited, names, 0.3, rng), k,
              "near-duplicate", &coverage);
  }
  EXPECT_GT(coverage.fractional, 50);
  EXPECT_GT(coverage.stopped, 50);
}

TEST(WalkerDifferentialTest, BinaryAlphabetEveryPositionUncertain) {
  // Two letters, every position uncertain: T_R is a complete binary trie
  // and almost every node stays within distance k.
  const Alphabet binary = Alphabet::Create("AB").value();
  Rng rng(12003);
  testing::RandomStringOptions opt;
  opt.min_length = 0;
  opt.max_length = 7;
  opt.theta = 1.0;
  opt.max_alternatives = 2;
  Coverage coverage;
  for (int k = 0; k <= 3; ++k) {
    for (int trial = 0; trial < 30; ++trial) {
      const UncertainString r =
          testing::RandomUncertainString(binary, opt, rng);
      const UncertainString s =
          testing::RandomUncertainString(binary, opt, rng);
      CheckPair(r, s, k, "binary", &coverage);
    }
  }
  EXPECT_GT(coverage.fractional, 30);
}

TEST(WalkerDifferentialTest, LengthsDifferingByExactlyK) {
  // |R| - |S| = ±k: only alignments that spend the whole budget on
  // insertions or deletions survive, the edge of the depth window.
  const Alphabet dna = Alphabet::Dna();
  Rng rng(12004);
  Coverage coverage;
  for (int k = 0; k <= 3; ++k) {
    for (int trial = 0; trial < 40; ++trial) {
      const int length = static_cast<int>(rng.UniformInt(1, 8));
      const std::string base = testing::RandomString(dna, length, rng);
      std::string longer = base;
      for (int i = 0; i < k; ++i) {
        const auto at = static_cast<size_t>(
            rng.Uniform(static_cast<uint64_t>(longer.size() + 1)));
        longer.insert(at, 1, testing::RandomSymbol(dna, rng));
      }
      const UncertainString shorter_u = Blur(base, dna, 0.4, rng);
      const UncertainString longer_u = Blur(longer, dna, 0.4, rng);
      CheckPair(shorter_u, longer_u, k, "R shorter by k", &coverage);
      CheckPair(longer_u, shorter_u, k, "R longer by k", &coverage);
    }
  }
  EXPECT_GT(coverage.nonzero, 150);
}

TEST(WalkerDifferentialTest, WholeTrieWithinDepthK) {
  // |R| <= k: the root's active set is the entire T_R, and every Extend
  // starts from the whole trie.
  const Alphabet dna = Alphabet::Dna();
  Rng rng(12005);
  testing::RandomStringOptions r_opt;
  r_opt.theta = 0.8;
  r_opt.max_alternatives = 4;
  testing::RandomStringOptions s_opt;
  s_opt.min_length = 0;
  s_opt.max_length = 6;
  s_opt.theta = 0.5;
  Coverage coverage;
  for (int k = 1; k <= 3; ++k) {
    r_opt.min_length = 0;
    r_opt.max_length = k;
    for (int trial = 0; trial < 40; ++trial) {
      const UncertainString r = testing::RandomUncertainString(dna, r_opt, rng);
      const UncertainString s = testing::RandomUncertainString(dna, s_opt, rng);
      CheckPair(r, s, k, "whole-trie", &coverage);
    }
  }
  EXPECT_GT(coverage.fractional, 20);
}

TEST(WalkerDifferentialTest, LongCertainRunsInCompressedLabels) {
  // Long certain stretches between rare uncertain positions give the
  // compressed trie long labels, so its scan jumps across unreachable
  // offsets; both trie shapes still agree with their references.
  const Alphabet dna = Alphabet::Dna();
  Rng rng(12006);
  Coverage coverage;
  for (int trial = 0; trial < 120; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, 3));
    const int length = static_cast<int>(rng.UniformInt(10, 24));
    const std::string base = testing::RandomString(dna, length, rng);
    const std::string edited = testing::RandomEdits(base, dna, k + 1, rng);
    CheckPair(Blur(base, dna, 0.1, rng), Blur(edited, dna, 0.1, rng), k,
              "long-runs", &coverage);
  }
  EXPECT_GT(coverage.fractional, 20);
}

}  // namespace
}  // namespace ujoin
