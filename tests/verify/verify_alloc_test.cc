// Allocation gate for exact verification: a walk over an already-built
// verifier may allocate its depth-indexed active-set buffers (one per
// depth of S, plus the stack that holds them) and nothing else, so the
// number of allocations never grows with the number of T_S nodes visited.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "testing/alloc_hook.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"
#include "verify/compressed_verifier.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

using testing::CountAllocations;

struct Walk {
  double probability;
  size_t allocations;
  VerifyStats stats;
};

template <typename Verifier>
Walk CountWalk(const Verifier& verifier, const UncertainString& s) {
  Walk walk{};
  CountAllocations counter;
  walk.probability = verifier.Probability(s, &walk.stats);
  walk.allocations = counter.count();
  return walk;
}

// A near-duplicate pair with uncertainty on both sides, so the walk visits
// many T_S nodes at every depth (hundreds of Extend calls).
void MakePair(Rng& rng, UncertainString* r, UncertainString* s) {
  const Alphabet dna = Alphabet::Dna();
  const std::string base = testing::RandomString(dna, 16, rng);
  auto blur = [&](const std::string& text) {
    UncertainString::Builder builder;
    for (size_t i = 0; i < text.size(); ++i) {
      if (i % 3 != 1) {
        builder.AddCertain(text[i]);
        continue;
      }
      const char other = text[i] == 'A' ? 'C' : 'A';
      builder.AddUncertain({CharProb{text[i], 0.7}, CharProb{other, 0.3}});
    }
    return builder.Build().value();
  };
  *r = blur(base);
  *s = blur(testing::RandomEdits(base, dna, /*max_edits=*/2, rng));
}

TEST(VerifyAllocTest, TrieWalkAllocatesAtMostOnePerDepth) {
  Rng rng(7101);
  for (int trial = 0; trial < 20; ++trial) {
    UncertainString r, s;
    MakePair(rng, &r, &s);
    for (int k = 0; k <= 3; ++k) {
      Result<TrieVerifier> verifier = TrieVerifier::Create(r, k);
      ASSERT_TRUE(verifier.ok());
      const Walk walk = CountWalk(*verifier, s);
      EXPECT_LE(walk.allocations, static_cast<size_t>(s.length()) + 2)
          << "k=" << k << " explored " << walk.stats.explored_s_nodes;
      if (k == 3) {
        EXPECT_GT(walk.stats.explored_s_nodes, 100);
      }
    }
  }
}

TEST(VerifyAllocTest, CompressedTrieWalkAllocatesAtMostOnePerDepth) {
  Rng rng(7102);
  for (int trial = 0; trial < 20; ++trial) {
    UncertainString r, s;
    MakePair(rng, &r, &s);
    for (int k = 0; k <= 3; ++k) {
      Result<CompressedTrieVerifier> verifier =
          CompressedTrieVerifier::Create(r, k);
      ASSERT_TRUE(verifier.ok());
      const Walk walk = CountWalk(*verifier, s);
      EXPECT_LE(walk.allocations, static_cast<size_t>(s.length()) + 2)
          << "k=" << k << " explored " << walk.stats.explored_s_nodes;
      if (k == 3) {
        EXPECT_GT(walk.stats.explored_s_nodes, 100);
      }
    }
  }
}

TEST(VerifyAllocTest, DecideSimilarKeepsTheSameBound) {
  Rng rng(7103);
  UncertainString r, s;
  MakePair(rng, &r, &s);
  Result<TrieVerifier> plain = TrieVerifier::Create(r, 2);
  Result<CompressedTrieVerifier> compressed =
      CompressedTrieVerifier::Create(r, 2);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(compressed.ok());
  for (const double tau : {0.0, 0.1, 0.5, 1.0}) {
    size_t plain_allocs, compressed_allocs;
    {
      CountAllocations counter;
      plain->DecideSimilar(s, tau);
      plain_allocs = counter.count();
    }
    {
      CountAllocations counter;
      compressed->DecideSimilar(s, tau);
      compressed_allocs = counter.count();
    }
    EXPECT_LE(plain_allocs, static_cast<size_t>(s.length()) + 2) << tau;
    EXPECT_LE(compressed_allocs, static_cast<size_t>(s.length()) + 2) << tau;
  }
}

}  // namespace
}  // namespace ujoin
