#ifndef UJOIN_TESTS_VERIFY_REFERENCE_WALKERS_H_
#define UJOIN_TESTS_VERIFY_REFERENCE_WALKERS_H_

// Reference copies of the trie walkers as they stood before the merge/cursor
// rewrite: the plain walker merges child ranges through a binary heap and
// resolves DP neighbours by binary search, the compressed walker collects
// candidates in a std::set.  Slow but simple; the walker differential test
// holds the production walkers bit-identical to them.  Test-only code.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "text/uncertain_string.h"
#include "util/math_util.h"
#include "verify/compressed_trie.h"
#include "verify/instance_trie.h"
#include "verify/verifier.h"

namespace ujoin::testing {

namespace reference_internal {

struct ActiveEntry {
  int32_t node;
  int32_t dist;
};

using ActiveSet = std::vector<ActiveEntry>;  // sorted by node id

inline int32_t LookupDistance(const ActiveSet& set, int32_t node) {
  auto it = std::lower_bound(
      set.begin(), set.end(), node,
      [](const ActiveEntry& e, int32_t id) { return e.node < id; });
  if (it == set.end() || it->node != node) return -1;
  return it->dist;
}

class HeapTrieWalker {
 public:
  HeapTrieWalker(const InstanceTrie& trie, const UncertainString& s, int k,
                 VerifyStats* stats, double tau = -1.0)
      : trie_(trie), s_(s), k_(k), tau_(tau), stats_(stats) {}

  double Run() {
    ActiveSet root_active;
    for (int32_t id = 0; id < trie_.num_nodes(); ++id) {
      const auto& node = trie_.node(id);
      if (node.depth > k_) break;
      root_active.push_back(ActiveEntry{id, node.depth});
    }
    Recurse(0, 1.0, root_active);
    return ClampProb(total_);
  }

  double lower_bound() const { return ClampProb(total_); }
  double upper_bound() const { return ClampProb(total_ + (1.0 - resolved_)); }
  bool stopped_early() const { return stopped_; }

 private:
  void Recurse(int depth, double prefix_prob, const ActiveSet& active) {
    if (stats_ != nullptr) {
      ++stats_->explored_s_nodes;
      stats_->active_entries += static_cast<int64_t>(active.size());
    }
    if (depth == s_.length()) {
      for (const ActiveEntry& e : active) {
        if (trie_.IsLeaf(e.node)) {
          total_ += prefix_prob * trie_.node(e.node).prob;
        }
      }
      resolved_ += prefix_prob;
      MaybeStop();
      return;
    }
    for (const CharProb& cp : s_.AlternativesAt(depth)) {
      if (stopped_) return;
      const double child_prob = prefix_prob * cp.prob;
      ActiveSet child = Extend(active, cp.symbol, depth + 1);
      if (child.empty()) {
        resolved_ += child_prob;
        MaybeStop();
        continue;
      }
      Recurse(depth + 1, child_prob, child);
    }
  }

  void MaybeStop() {
    if (tau_ < 0.0) return;
    if (total_ > tau_ || total_ + (1.0 - resolved_) <= tau_) stopped_ = true;
  }

  ActiveSet Extend(const ActiveSet& active, char c, int new_len) {
    ActiveSet next;
    using Range = std::pair<int32_t, int32_t>;  // [current, end)
    std::priority_queue<Range, std::vector<Range>, std::greater<Range>> heap;
    auto push_children = [&](int32_t v) {
      const auto& node = trie_.node(v);
      if (node.num_children > 0) {
        heap.push({node.first_child, node.first_child + node.num_children});
      }
    };
    if (new_len <= k_) heap.push({trie_.root(), trie_.root() + 1});
    for (const ActiveEntry& e : active) {
      heap.push({e.node, e.node + 1});
      push_children(e.node);
    }
    int32_t last = -1;
    while (!heap.empty()) {
      const auto [v, end] = heap.top();
      heap.pop();
      if (v + 1 < end) heap.push({v + 1, end});
      if (v == last) continue;
      last = v;
      int32_t best;
      if (v == trie_.root()) {
        best = new_len;
      } else {
        const auto& node = trie_.node(v);
        best = k_ + 1;
        const int32_t parent_du = LookupDistance(active, node.parent);
        if (parent_du >= 0) {
          const int32_t cost = node.symbol == c ? 0 : 1;
          best = std::min(best, parent_du + cost);
        }
        const int32_t self_du = LookupDistance(active, v);
        if (self_du >= 0) best = std::min(best, self_du + 1);
        const int32_t parent_dnext = LookupDistance(next, node.parent);
        if (parent_dnext >= 0) best = std::min(best, parent_dnext + 1);
      }
      if (best > k_) continue;
      next.push_back(ActiveEntry{v, best});
      push_children(v);
    }
    return next;
  }

  const InstanceTrie& trie_;
  const UncertainString& s_;
  const int k_;
  const double tau_;
  VerifyStats* stats_;
  double total_ = 0.0;
  double resolved_ = 0.0;
  bool stopped_ = false;
};

struct VirtualNode {
  int32_t node;
  int32_t offset;

  friend bool operator<(const VirtualNode& a, const VirtualNode& b) {
    return a.node != b.node ? a.node < b.node : a.offset < b.offset;
  }
  friend bool operator==(const VirtualNode& a, const VirtualNode& b) {
    return a.node == b.node && a.offset == b.offset;
  }
};

struct VirtualEntry {
  VirtualNode v;
  int32_t dist;
};

using VirtualSet = std::vector<VirtualEntry>;  // sorted by VirtualNode

inline int32_t LookupDistance(const VirtualSet& set, const VirtualNode& v) {
  auto it = std::lower_bound(
      set.begin(), set.end(), v,
      [](const VirtualEntry& e, const VirtualNode& key) { return e.v < key; });
  if (it == set.end() || !(it->v == v)) return -1;
  return it->dist;
}

class SetCompressedTrieWalker {
 public:
  SetCompressedTrieWalker(const CompressedInstanceTrie& trie,
                          const UncertainString& s, int k, VerifyStats* stats,
                          double tau = -1.0)
      : trie_(trie), s_(s), k_(k), tau_(tau), stats_(stats) {}

  double Run() {
    VirtualSet root_active;
    root_active.push_back(VirtualEntry{VirtualNode{trie_.root(), -1}, 0});
    CollectShallow(trie_.root(), &root_active);
    std::sort(root_active.begin(), root_active.end(),
              [](const VirtualEntry& a, const VirtualEntry& b) {
                return a.v < b.v;
              });
    Recurse(0, 1.0, root_active);
    return ClampProb(total_);
  }

  double lower_bound() const { return ClampProb(total_); }
  double upper_bound() const { return ClampProb(total_ + (1.0 - resolved_)); }
  bool stopped_early() const { return stopped_; }

 private:
  int Depth(const VirtualNode& v) const {
    return trie_.StartDepth(v.node) + v.offset + 1;
  }

  bool IsFullInstance(const VirtualNode& v) const {
    return Depth(v) == trie_.depth() && trie_.IsLeafNode(v.node) &&
           v.offset == trie_.LabelLength(v.node) - 1;
  }

  void CollectShallow(int32_t node, VirtualSet* out) {
    const int start = trie_.StartDepth(node);
    const int len = trie_.LabelLength(node);
    for (int off = 0; off < len; ++off) {
      const int depth = start + off + 1;
      if (depth > k_) return;
      out->push_back(VirtualEntry{VirtualNode{node, off},
                                  static_cast<int32_t>(depth)});
    }
    const auto& n = trie_.node(node);
    if (start + len + 1 > k_) return;
    for (int32_t c = 0; c < n.num_children; ++c) {
      CollectShallow(n.first_child + c, out);
    }
  }

  void Recurse(int depth, double prefix_prob, const VirtualSet& active) {
    if (stats_ != nullptr) {
      ++stats_->explored_s_nodes;
      stats_->active_entries += static_cast<int64_t>(active.size());
    }
    if (depth == s_.length()) {
      for (const VirtualEntry& e : active) {
        if (IsFullInstance(e.v)) {
          total_ += prefix_prob * trie_.node(e.v.node).prob;
        }
      }
      resolved_ += prefix_prob;
      MaybeStop();
      return;
    }
    for (const CharProb& cp : s_.AlternativesAt(depth)) {
      if (stopped_) return;
      const double child_prob = prefix_prob * cp.prob;
      VirtualSet child = Extend(active, cp.symbol, depth + 1);
      if (child.empty()) {
        resolved_ += child_prob;
        MaybeStop();
        continue;
      }
      Recurse(depth + 1, child_prob, child);
    }
  }

  void MaybeStop() {
    if (tau_ < 0.0) return;
    if (total_ > tau_ || total_ + (1.0 - resolved_) <= tau_) stopped_ = true;
  }

  VirtualNode Parent(const VirtualNode& v) const {
    if (v.offset > 0 || (v.node == trie_.root() && v.offset == 0)) {
      return VirtualNode{v.node, v.offset - 1};
    }
    const int32_t parent_node = trie_.node(v.node).parent;
    return VirtualNode{parent_node, trie_.LabelLength(parent_node) - 1};
  }

  void AddChildren(const VirtualNode& v, std::set<VirtualNode>* candidates) {
    if (v.offset + 1 < trie_.LabelLength(v.node)) {
      candidates->insert(VirtualNode{v.node, v.offset + 1});
      return;
    }
    const auto& n = trie_.node(v.node);
    for (int32_t c = 0; c < n.num_children; ++c) {
      candidates->insert(VirtualNode{n.first_child + c, 0});
    }
  }

  VirtualSet Extend(const VirtualSet& active, char c, int new_len) {
    VirtualSet next;
    std::set<VirtualNode> candidates;
    const VirtualNode epsilon{trie_.root(), -1};
    if (new_len <= k_) candidates.insert(epsilon);
    for (const VirtualEntry& e : active) {
      candidates.insert(e.v);
      AddChildren(e.v, &candidates);
    }
    for (auto it = candidates.begin(); it != candidates.end(); ++it) {
      const VirtualNode v = *it;
      int32_t best;
      if (v == epsilon) {
        best = new_len;
      } else {
        best = k_ + 1;
        const VirtualNode parent = Parent(v);
        const char vc = trie_.LabelChar(v.node, v.offset);
        const int32_t parent_du = LookupDistance(active, parent);
        if (parent_du >= 0) {
          best = std::min(best, parent_du + (vc == c ? 0 : 1));
        }
        const int32_t self_du = LookupDistance(active, v);
        if (self_du >= 0) best = std::min(best, self_du + 1);
        const int32_t parent_dnext = LookupDistance(next, parent);
        if (parent_dnext >= 0) best = std::min(best, parent_dnext + 1);
      }
      if (best > k_) continue;
      next.push_back(VirtualEntry{v, best});
      AddChildren(v, &candidates);
    }
    return next;
  }

  const CompressedInstanceTrie& trie_;
  const UncertainString& s_;
  const int k_;
  const double tau_;
  VerifyStats* stats_;
  double total_ = 0.0;
  double resolved_ = 0.0;
  bool stopped_ = false;
};

// Runs a walker the way the verifiers do, including the r_trie_nodes charge
// and the verdict assembly of DecideSimilar.
template <typename Walker, typename Trie>
double WalkProbability(const Trie& trie, const UncertainString& s, int k,
                       VerifyStats* stats) {
  if (stats != nullptr) stats->r_trie_nodes += trie.num_nodes();
  Walker walker(trie, s, k, stats);
  return walker.Run();
}

template <typename Walker, typename Trie>
ThresholdVerdict WalkDecide(const Trie& trie, const UncertainString& s, int k,
                            double tau, VerifyStats* stats) {
  if (stats != nullptr) stats->r_trie_nodes += trie.num_nodes();
  Walker walker(trie, s, k, stats, tau);
  walker.Run();
  ThresholdVerdict verdict;
  verdict.lower = walker.lower_bound();
  verdict.upper = walker.upper_bound();
  verdict.exact = !walker.stopped_early();
  verdict.similar = verdict.lower > tau;
  return verdict;
}

}  // namespace reference_internal

/// Pre-rewrite TrieVerifier::Probability over an already-built T_R.
inline double ReferenceTrieProbability(const InstanceTrie& trie,
                                       const UncertainString& s, int k,
                                       VerifyStats* stats) {
  return reference_internal::WalkProbability<
      reference_internal::HeapTrieWalker>(trie, s, k, stats);
}

/// Pre-rewrite TrieVerifier::DecideSimilar over an already-built T_R.
inline ThresholdVerdict ReferenceTrieDecide(const InstanceTrie& trie,
                                            const UncertainString& s, int k,
                                            double tau, VerifyStats* stats) {
  return reference_internal::WalkDecide<reference_internal::HeapTrieWalker>(
      trie, s, k, tau, stats);
}

/// Pre-rewrite CompressedTrieVerifier::Probability.
inline double ReferenceCompressedProbability(
    const CompressedInstanceTrie& trie, const UncertainString& s, int k,
    VerifyStats* stats) {
  return reference_internal::WalkProbability<
      reference_internal::SetCompressedTrieWalker>(trie, s, k, stats);
}

/// Pre-rewrite CompressedTrieVerifier::DecideSimilar.
inline ThresholdVerdict ReferenceCompressedDecide(
    const CompressedInstanceTrie& trie, const UncertainString& s, int k,
    double tau, VerifyStats* stats) {
  return reference_internal::WalkDecide<
      reference_internal::SetCompressedTrieWalker>(trie, s, k, tau, stats);
}

}  // namespace ujoin::testing

#endif  // UJOIN_TESTS_VERIFY_REFERENCE_WALKERS_H_
