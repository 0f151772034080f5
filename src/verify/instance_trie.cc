#include "verify/instance_trie.h"

#include "util/check.h"

namespace ujoin {

Result<InstanceTrie> InstanceTrie::Build(const UncertainString& s,
                                         int64_t max_nodes) {
  InstanceTrie trie;
  trie.depth_ = s.length();
  trie.nodes_.push_back(Node{0, -1, 0, 0, 0, 1.0});
  trie.prefixes_below_ = {0, 1};
  int32_t level_begin = 0;
  int32_t level_end = 1;
  for (int d = 0; d < s.length(); ++d) {
    auto alts = s.AlternativesAt(d);
    const int64_t level_size = level_end - level_begin;
    const int64_t next_size = level_size * static_cast<int64_t>(alts.size());
    if (static_cast<int64_t>(trie.nodes_.size()) + next_size > max_nodes) {
      return Status::ResourceExhausted(
          "instance trie would exceed " + std::to_string(max_nodes) +
          " nodes at depth " + std::to_string(d));
    }
    for (int32_t id = level_begin; id < level_end; ++id) {
      trie.nodes_[static_cast<size_t>(id)].first_child =
          static_cast<int32_t>(trie.nodes_.size());
      trie.nodes_[static_cast<size_t>(id)].num_children =
          static_cast<int32_t>(alts.size());
      const double parent_prob = trie.nodes_[static_cast<size_t>(id)].prob;
      for (const CharProb& cp : alts) {
        trie.nodes_.push_back(Node{cp.symbol, id, d + 1, 0, 0,
                                   parent_prob * cp.prob});
      }
    }
    level_begin = level_end;
    level_end = static_cast<int32_t>(trie.nodes_.size());
    trie.prefixes_below_.push_back(level_end);
  }
  return trie;
}

}  // namespace ujoin
