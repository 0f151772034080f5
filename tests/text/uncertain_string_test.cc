#include "text/uncertain_string.h"

#include <limits>

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "text/alphabet.h"
#include "text/possible_worlds.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace ujoin {
namespace {

constexpr double kTol = 1e-12;

TEST(UncertainStringTest, FromDeterministicIsAllCertain) {
  UncertainString s = UncertainString::FromDeterministic("ACGT");
  EXPECT_EQ(s.length(), 4);
  EXPECT_TRUE(s.IsDeterministic());
  EXPECT_EQ(s.NumUncertainPositions(), 0);
  EXPECT_EQ(s.WorldCount(), 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.IsCertain(i));
    EXPECT_EQ(s.NumAlternatives(i), 1);
  }
  EXPECT_EQ(s.MostLikelyInstance(), "ACGT");
}

TEST(UncertainStringTest, ParsePaperNotation) {
  Alphabet dna = Alphabet::Dna();
  // The S3 string from Table 1 of the paper.
  Result<UncertainString> s =
      UncertainString::Parse("A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC", dna);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->length(), 6);
  EXPECT_EQ(s->NumUncertainPositions(), 2);
  EXPECT_EQ(s->WorldCount(), 4);
  EXPECT_TRUE(s->IsCertain(0));
  EXPECT_FALSE(s->IsCertain(1));
  EXPECT_NEAR(s->ProbabilityOf(1, 'C'), 0.5, kTol);
  EXPECT_NEAR(s->ProbabilityOf(1, 'G'), 0.5, kTol);
  EXPECT_NEAR(s->ProbabilityOf(1, 'A'), 0.0, kTol);
}

TEST(UncertainStringTest, ParseFormatsRoundTrip) {
  Alphabet dna = Alphabet::Dna();
  const std::string text = "G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C";
  Result<UncertainString> s = UncertainString::Parse(text, dna);
  ASSERT_TRUE(s.ok());
  Result<UncertainString> reparsed = UncertainString::Parse(s->ToString(), dna);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(*s == *reparsed);
}

TEST(UncertainStringTest, ParseRejectsUnknownSymbol) {
  Alphabet dna = Alphabet::Dna();
  EXPECT_FALSE(UncertainString::Parse("AXC", dna).ok());
  EXPECT_FALSE(UncertainString::Parse("A{(X,1.0)}", dna).ok());
}

TEST(UncertainStringTest, ParseRejectsMalformedInput) {
  Alphabet dna = Alphabet::Dna();
  EXPECT_FALSE(UncertainString::Parse("A{(C,0.5)", dna).ok());    // no '}'
  EXPECT_FALSE(UncertainString::Parse("A{C,0.5)}", dna).ok());    // no '('
  EXPECT_FALSE(UncertainString::Parse("A{(C0.5)}", dna).ok());    // no ','
  EXPECT_FALSE(UncertainString::Parse("A{(C,x)}", dna).ok());     // bad prob
  EXPECT_FALSE(UncertainString::Parse("A{(C,0.5),(G,0.2)}", dna).ok());  // sum
  EXPECT_FALSE(UncertainString::Parse("A{(C,nan),(G,1)}", dna).ok());  // NaN
}

TEST(UncertainStringTest, BuilderRejectsBadDistributions) {
  {
    UncertainString::Builder b;
    b.AddUncertain({{'A', 0.5}, {'A', 0.5}});  // duplicate symbol
    EXPECT_FALSE(b.Build().ok());
  }
  {
    UncertainString::Builder b;
    b.AddUncertain({{'A', 0.7}, {'C', 0.7}});  // sums to 1.4
    EXPECT_FALSE(b.Build().ok());
  }
  {
    UncertainString::Builder b;
    b.AddUncertain({{'A', -0.5}, {'C', 1.5}});  // negative
    EXPECT_FALSE(b.Build().ok());
  }
  {
    UncertainString::Builder b;
    b.AddUncertain({});  // empty position
    EXPECT_FALSE(b.Build().ok());
  }
  {
    // NaN compares false both ways, so a `prob <= 0` test lets it through.
    UncertainString::Builder b;
    b.AddUncertain({{'A', std::numeric_limits<double>::quiet_NaN()},
                    {'C', 1.0}});
    const Result<UncertainString> built = b.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().message(),
              "NaN probability at position 0");
  }
}

TEST(UncertainStringTest, BuilderNormalizesWithinTolerance) {
  UncertainString::Builder b;
  b.AddUncertain({{'A', 0.3000001}, {'C', 0.7}});
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  const double sum = s->ProbabilityOf(0, 'A') + s->ProbabilityOf(0, 'C');
  EXPECT_NEAR(sum, 1.0, kTol);
}

TEST(UncertainStringTest, AlternativesSortedBySymbol) {
  UncertainString::Builder b;
  b.AddUncertain({{'T', 0.5}, {'A', 0.3}, {'G', 0.2}});
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  auto alts = s->AlternativesAt(0);
  ASSERT_EQ(alts.size(), 3u);
  EXPECT_EQ(alts[0].symbol, 'A');
  EXPECT_EQ(alts[1].symbol, 'G');
  EXPECT_EQ(alts[2].symbol, 'T');
}

TEST(UncertainStringTest, MostLikelySymbolPrefersHighestProbability) {
  UncertainString::Builder b;
  b.AddUncertain({{'A', 0.2}, {'C', 0.5}, {'G', 0.3}});
  b.AddCertain('T');
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->MostLikelySymbol(0), 'C');
  EXPECT_EQ(s->MostLikelyInstance(), "CT");
}

TEST(UncertainStringTest, SubstringKeepsDistributions) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> s =
      UncertainString::Parse("A{(C,0.5),(G,0.5)}A{(C,0.4),(G,0.6)}AC", dna);
  ASSERT_TRUE(s.ok());
  UncertainString sub = s->Substring(1, 3);
  EXPECT_EQ(sub.length(), 3);
  EXPECT_EQ(sub.NumUncertainPositions(), 2);
  EXPECT_NEAR(sub.ProbabilityOf(0, 'C'), 0.5, kTol);
  EXPECT_NEAR(sub.ProbabilityOf(2, 'G'), 0.6, kTol);
}

TEST(UncertainStringTest, SubstringOfWholeStringEqualsOriginal) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> s =
      UncertainString::Parse("A{(C,0.5),(G,0.5)}AC", dna);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Substring(0, s->length()) == *s);
}

TEST(UncertainStringTest, ConcatJoinsStringsAndCounts) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> a = UncertainString::Parse("A{(C,0.5),(G,0.5)}", dna);
  Result<UncertainString> b = UncertainString::Parse("{(A,0.9),(T,0.1)}C", dna);
  ASSERT_TRUE(a.ok() && b.ok());
  UncertainString c = UncertainString::Concat(*a, *b);
  EXPECT_EQ(c.length(), 4);
  EXPECT_EQ(c.NumUncertainPositions(), 2);
  EXPECT_EQ(c.WorldCount(), 4);
  EXPECT_NEAR(c.ProbabilityOf(2, 'T'), 0.1, kTol);
  EXPECT_NEAR(c.ProbabilityOf(3, 'C'), 1.0, kTol);
}

TEST(UncertainStringTest, EmptyStringBasics) {
  UncertainString s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.length(), 0);
  EXPECT_EQ(s.WorldCount(), 1);
  EXPECT_EQ(s.ToString(), "");
}

TEST(MatchProbabilityTest, DeterministicPatternAgainstUncertainText) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> t =
      UncertainString::Parse("A{(C,0.5),(G,0.5)}A{(C,0.4),(G,0.6)}", dna);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(MatchProbabilityAt("AC", *t, 0), 0.5, kTol);
  EXPECT_NEAR(MatchProbabilityAt("CA", *t, 1), 0.5, kTol);
  EXPECT_NEAR(MatchProbabilityAt("AG", *t, 2), 0.6, kTol);
  EXPECT_NEAR(MatchProbabilityAt("AC", *t, 2), 0.4, kTol);
  EXPECT_NEAR(MatchProbabilityAt("TG", *t, 2), 0.0, kTol);  // T impossible
  EXPECT_NEAR(MatchProbabilityAt("AC", *t, 3), 0.0, kTol);  // window overflow
  EXPECT_NEAR(MatchProbability("ACAC", *t), 0.5 * 0.4, kTol);
  EXPECT_NEAR(MatchProbability("ACA", *t), 0.0, kTol);  // length mismatch
}

TEST(MatchProbabilityTest, UncertainAgainstUncertainMergesAlternatives) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> w = UncertainString::Parse("{(A,0.5),(C,0.5)}", dna);
  Result<UncertainString> t = UncertainString::Parse("{(A,0.4),(G,0.6)}", dna);
  ASSERT_TRUE(w.ok() && t.ok());
  EXPECT_NEAR(MatchProbability(*w, *t), 0.5 * 0.4, kTol);
}

TEST(MatchProbabilityTest, MatchesBruteForceOverWorlds) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(7);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 5;
  for (int trial = 0; trial < 50; ++trial) {
    UncertainString w = testing::RandomUncertainString(dna, opt, rng);
    testing::RandomStringOptions opt2 = opt;
    opt2.min_length = opt2.max_length = w.length();
    UncertainString t = testing::RandomUncertainString(dna, opt2, rng);
    double brute = 0.0;
    ForEachWorld(w, [&](const std::string& wi, double pw) {
      ForEachWorld(t, [&](const std::string& ti, double pt) {
        if (wi == ti) brute += pw * pt;
      });
    });
    EXPECT_NEAR(MatchProbability(w, t), brute, 1e-9);
  }
}

TEST(UncertainStringTest, WorldCountSaturatesInsteadOfOverflowing) {
  UncertainString::Builder b;
  for (int i = 0; i < 80; ++i) {
    b.AddUncertain({{'A', 0.5}, {'C', 0.5}});
  }
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->WorldCount(), 0);
  EXPECT_EQ(s->WorldCount(), kWorldCountCap);
}

}  // namespace
}  // namespace ujoin
