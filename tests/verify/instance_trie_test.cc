#include "verify/instance_trie.h"

#include <map>

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "text/alphabet.h"
#include "text/possible_worlds.h"
#include "util/rng.h"

namespace ujoin {
namespace {

TEST(InstanceTrieTest, DeterministicStringIsAPath) {
  Result<InstanceTrie> trie =
      InstanceTrie::Build(UncertainString::FromDeterministic("ACG"));
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_nodes(), 4);  // root + 3
  EXPECT_EQ(trie->depth(), 3);
  int32_t id = trie->root();
  std::string path;
  while (trie->node(id).num_children > 0) {
    ASSERT_EQ(trie->node(id).num_children, 1);
    id = trie->node(id).first_child;
    path.push_back(trie->node(id).symbol);
    EXPECT_DOUBLE_EQ(trie->node(id).prob, 1.0);
  }
  EXPECT_EQ(path, "ACG");
  EXPECT_TRUE(trie->IsLeaf(id));
}

TEST(InstanceTrieTest, LeafProbabilitiesMatchWorlds) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(71);
  testing::RandomStringOptions opt;
  opt.min_length = 1;
  opt.max_length = 7;
  opt.theta = 0.5;
  for (int trial = 0; trial < 40; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    Result<InstanceTrie> trie = InstanceTrie::Build(s);
    ASSERT_TRUE(trie.ok());
    // Collect leaves by walking every node.
    std::map<std::string, double> leaves;
    std::vector<std::pair<int32_t, std::string>> stack = {{trie->root(), ""}};
    double leaf_sum = 0.0;
    while (!stack.empty()) {
      auto [id, prefix] = stack.back();
      stack.pop_back();
      const auto& node = trie->node(id);
      if (trie->IsLeaf(id)) {
        leaves[prefix] = node.prob;
        leaf_sum += node.prob;
        continue;
      }
      for (int32_t ch = 0; ch < node.num_children; ++ch) {
        const int32_t child = node.first_child + ch;
        stack.push_back({child, prefix + trie->node(child).symbol});
      }
    }
    EXPECT_NEAR(leaf_sum, 1.0, 1e-9);
    EXPECT_EQ(static_cast<int64_t>(leaves.size()), s.WorldCount());
    ForEachWorld(s, [&](const std::string& instance, double prob) {
      ASSERT_TRUE(leaves.count(instance)) << instance;
      EXPECT_NEAR(leaves.at(instance), prob, 1e-12);
    });
  }
}

TEST(InstanceTrieTest, BfsIdsAreLevelOrdered) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> s = UncertainString::Parse(
      "{(A,0.5),(C,0.5)}G{(A,0.3),(G,0.3),(T,0.4)}", dna);
  ASSERT_TRUE(s.ok());
  Result<InstanceTrie> trie = InstanceTrie::Build(*s);
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_nodes(), 1 + 2 + 2 + 6);
  for (int32_t id = 1; id < trie->num_nodes(); ++id) {
    EXPECT_GE(trie->node(id).depth, trie->node(id - 1).depth);
    EXPECT_LT(trie->node(id).parent, id);
    EXPECT_EQ(trie->node(id).depth, trie->node(trie->node(id).parent).depth + 1);
  }
}

TEST(InstanceTrieTest, NodeCapReturnsResourceExhausted) {
  UncertainString::Builder b;
  for (int i = 0; i < 20; ++i) b.AddUncertain({{'A', 0.5}, {'C', 0.5}});
  Result<UncertainString> s = b.Build();
  ASSERT_TRUE(s.ok());
  Result<InstanceTrie> trie = InstanceTrie::Build(*s, /*max_nodes=*/1000);
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kResourceExhausted);
}

TEST(InstanceTrieTest, EmptyStringIsJustRoot) {
  Result<InstanceTrie> trie = InstanceTrie::Build(UncertainString());
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_nodes(), 1);
  EXPECT_TRUE(trie->IsLeaf(trie->root()));
  EXPECT_DOUBLE_EQ(trie->node(trie->root()).prob, 1.0);
}

TEST(InstanceTrieTest, PrefixesAtDepthsCountsNodesPerDepthWindow) {
  // The verifier sizes its per-depth active-set buffers with this count,
  // so it must equal a direct tally, including windows that reach past
  // either end of the trie.
  Alphabet dna = Alphabet::Dna();
  Rng rng(409);
  testing::RandomStringOptions opt;
  opt.min_length = 0;
  opt.max_length = 8;
  opt.theta = 0.5;
  for (int trial = 0; trial < 40; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    Result<InstanceTrie> trie = InstanceTrie::Build(s);
    ASSERT_TRUE(trie.ok());
    for (int lo = -3; lo <= s.length() + 3; ++lo) {
      for (int hi = lo - 1; hi <= s.length() + 3; ++hi) {
        int64_t expected = 0;
        for (int32_t id = 0; id < trie->num_nodes(); ++id) {
          const int depth = trie->node(id).depth;
          expected += depth >= lo && depth <= hi ? 1 : 0;
        }
        EXPECT_EQ(trie->PrefixesAtDepths(lo, hi), expected)
            << s.ToString() << " [" << lo << ", " << hi << "]";
      }
    }
  }
}

}  // namespace
}  // namespace ujoin
