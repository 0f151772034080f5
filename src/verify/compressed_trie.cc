#include "verify/compressed_trie.h"

#include "util/check.h"

namespace ujoin {

Result<CompressedInstanceTrie> CompressedInstanceTrie::Build(
    const UncertainString& s, int64_t max_nodes) {
  CompressedInstanceTrie trie;
  trie.depth_ = s.length();

  // Locate uncertain positions; the runs between them are shared per level.
  std::vector<int> uncertain;
  for (int i = 0; i < s.length(); ++i) {
    if (!s.IsCertain(i)) uncertain.push_back(i);
  }

  // Level 0: the root with the leading certain run.
  trie.run_begin_.push_back(0);
  trie.level_start_depth_.push_back(0);
  const int first_uncertain =
      uncertain.empty() ? s.length() : uncertain.front();
  for (int i = 0; i < first_uncertain; ++i) {
    trie.runs_.push_back(s.AlternativesAt(i)[0].symbol);
  }
  trie.run_begin_.push_back(static_cast<int32_t>(trie.runs_.size()));
  trie.nodes_.push_back(Node{-1, 0, 0, 0, 0, 1.0});
  // Every depth is covered by one level's labels, once per node of the
  // level; ε alone has depth 0.
  trie.prefixes_below_ = {0, 1};
  auto add_depths = [&](int depths, int64_t per_depth) {
    for (int i = 0; i < depths; ++i) {
      trie.prefixes_below_.push_back(trie.prefixes_below_.back() + per_depth);
    }
  };
  add_depths(first_uncertain, 1);

  int32_t level_begin = 0;
  int32_t level_end = 1;
  for (size_t u = 0; u < uncertain.size(); ++u) {
    const int pos = uncertain[u];
    auto alts = s.AlternativesAt(pos);
    const int64_t level_size = level_end - level_begin;
    const int64_t next_size = level_size * static_cast<int64_t>(alts.size());
    if (static_cast<int64_t>(trie.nodes_.size()) + next_size > max_nodes) {
      return Status::ResourceExhausted(
          "compressed instance trie would exceed " +
          std::to_string(max_nodes) + " nodes at uncertain position " +
          std::to_string(pos));
    }
    // The level's shared run: certain characters after `pos` up to the next
    // uncertain position (or the end of the string).
    const int run_end =
        u + 1 < uncertain.size() ? uncertain[u + 1] : s.length();
    trie.level_start_depth_.push_back(pos);
    for (int i = pos + 1; i < run_end; ++i) {
      trie.runs_.push_back(s.AlternativesAt(i)[0].symbol);
    }
    trie.run_begin_.push_back(static_cast<int32_t>(trie.runs_.size()));

    const int32_t level = static_cast<int32_t>(u) + 1;
    for (int32_t id = level_begin; id < level_end; ++id) {
      trie.nodes_[static_cast<size_t>(id)].first_child =
          static_cast<int32_t>(trie.nodes_.size());
      trie.nodes_[static_cast<size_t>(id)].num_children =
          static_cast<int32_t>(alts.size());
      const double parent_prob = trie.nodes_[static_cast<size_t>(id)].prob;
      for (const CharProb& cp : alts) {
        trie.nodes_.push_back(
            Node{id, 0, 0, level, cp.symbol, parent_prob * cp.prob});
      }
    }
    level_begin = level_end;
    level_end = static_cast<int32_t>(trie.nodes_.size());
    add_depths(run_end - pos, next_size);
  }
  return trie;
}

}  // namespace ujoin
