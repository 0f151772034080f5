#ifndef UJOIN_VERIFY_TRIE_WALK_H_
#define UJOIN_VERIFY_TRIE_WALK_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "text/uncertain_string.h"
#include "util/check.h"
#include "util/math_util.h"
#include "verify/verifier.h"

namespace ujoin::internal {

/// One active entry: a T_R position (a node id, or a virtual position of the
/// compressed trie) and its exact edit distance (<= k) from the current T_S
/// prefix.  Active sets are sorted by position.
template <typename Pos>
struct ActiveEntry {
  Pos pos;
  int32_t dist;
};

/// Monotone lookup: advances `*cursor` to the first entry of `set` not below
/// `pos` and returns its distance if it is `pos`, else -1.  Successive
/// calls on one cursor must ask for non-decreasing positions.
template <typename Pos>
int32_t Seek(const std::vector<ActiveEntry<Pos>>& set, size_t* cursor,
             const Pos& pos) {
  while (*cursor < set.size() && set[*cursor].pos < pos) ++*cursor;
  return *cursor < set.size() && set[*cursor].pos == pos ? set[*cursor].dist
                                                         : -1;
}

/// The children of an active set's members in ascending id order: T_R keeps
/// each node's children in one BFS id range, and the ranges ascend with the
/// parent.  The set may grow while it is read.
class ChildStream {
 public:
  /// Opens members' child ranges, [first, end) = range(member), until one
  /// is non-empty or the set is exhausted.
  template <typename Set, typename Range>
  void Fill(const Set& set, Range range) {
    while (cur_ == end_ && src_ < set.size()) {
      std::tie(cur_, end_) = range(set[src_++]);
    }
  }
  int32_t Min(int32_t v) const { return cur_ < end_ && cur_ < v ? cur_ : v; }
  void Skip(int32_t v) { cur_ += cur_ < end_ && cur_ == v ? 1 : 0; }

 private:
  size_t src_ = 0;
  int32_t cur_ = 0;
  int32_t end_ = 0;
};

/// The depth-first walk over the on-demand trie of S against a fixed T_R
/// (Section 6.2), shared by the plain and the compressed verifier.
/// `Walker` supplies the trie-specific parts: FillRoot (A(ε)), Extend
/// (A(u·c) from A(u)), and IsInstance / InstanceProb (a full instance of R
/// at a leaf of T_S).
///
/// Active sets live in a depth-indexed stack owned by the walk: A(u) for a
/// T_S node u of depth d sits in levels_[d], and siblings reuse the same
/// buffer.  Each buffer is reserved once, on first use, for every T_R
/// prefix within k of its depth (a prefix whose length differs by more is
/// more than k edits away), so it never grows: a walk makes at most
/// |S| + 2 heap allocations, all released when it ends.
///
/// With a threshold τ >= 0 the walk stops as soon as the verdict is
/// certain: total_ > τ, or total_ + (1 - resolved_) <= τ.
template <typename Walker, typename Trie, typename Pos>
class TrieWalk {
 public:
  using ActiveSet = std::vector<ActiveEntry<Pos>>;

  TrieWalk(const Trie& trie, const UncertainString& s, int k,
           VerifyStats* stats, double tau)
      : trie_(trie), k_(k), s_(s), tau_(tau), stats_(stats),
        levels_(static_cast<size_t>(s.length()) + 1) {}

  /// Walks T_S; `lower` and `upper` certify Pr(ed(R, S) <= k) and
  /// coincide (the exact probability) unless τ stopped the walk early.
  ThresholdVerdict Run() {
    self().FillRoot(&Level(0));
    Recurse(0, 1.0);
    ThresholdVerdict verdict;
    verdict.lower = ClampProb(total_);
    verdict.upper = ClampProb(total_ + (1.0 - resolved_));
    verdict.exact = !stopped_;
    verdict.similar = verdict.lower > tau_;
    UJOIN_DCHECK(verdict.similar || verdict.upper <= tau_ || verdict.exact);
    return verdict;
  }

 protected:
  const Trie& trie_;
  const int k_;

 private:
  Walker& self() { return static_cast<Walker&>(*this); }

  // The cleared buffer for depth `depth`, reserved on first use.
  ActiveSet& Level(int depth) {
    ActiveSet& set = levels_[static_cast<size_t>(depth)];
    set.clear();
    if (set.capacity() == 0) {
      set.reserve(static_cast<size_t>(
          trie_.PrefixesAtDepths(depth - k_, depth + k_)));
    }
    return set;
  }

  void Recurse(int depth, double prefix_prob) {
    const ActiveSet& active = levels_[static_cast<size_t>(depth)];
    if (stats_ != nullptr) {
      ++stats_->explored_s_nodes;
      stats_->active_entries += static_cast<int64_t>(active.size());
    }
    if (depth == s_.length()) {
      for (const ActiveEntry<Pos>& e : active) {
        if (self().IsInstance(e.pos)) {
          total_ += prefix_prob * self().InstanceProb(e.pos);
        }
      }
      resolved_ += prefix_prob;
      MaybeStop();
      return;
    }
    for (const CharProb& cp : s_.AlternativesAt(depth)) {
      if (stopped_) return;
      const double child_prob = prefix_prob * cp.prob;
      if (!self().Extend(active, cp.symbol, depth + 1, &Level(depth + 1))) {
        // Prefix pruning: the subtree contributes exactly 0.
        resolved_ += child_prob;
        MaybeStop();
        continue;
      }
      Recurse(depth + 1, child_prob);
    }
  }

  void MaybeStop() {
    if (tau_ < 0.0) return;
    if (total_ > tau_ || total_ + (1.0 - resolved_) <= tau_) stopped_ = true;
  }

  const UncertainString& s_;
  const double tau_;  // negative disables early termination
  VerifyStats* stats_;
  std::vector<ActiveSet> levels_;  // levels_[d]: A(u) for |u| = d
  double total_ = 0.0;     // accumulated matching mass (only grows)
  double resolved_ = 0.0;  // S-prefix mass with a final contribution
  bool stopped_ = false;
};

/// One walk of S against T_R, charging T_R's size to `stats` (accumulated
/// into when given); τ < 0 disables early termination.
template <typename Walker, typename Trie>
ThresholdVerdict Walk(const Trie& trie, const UncertainString& s, int k,
                      double tau, VerifyStats* stats) {
  if (stats != nullptr) stats->r_trie_nodes += trie.num_nodes();
  return Walker(trie, s, k, stats, tau).Run();
}

}  // namespace ujoin::internal

#endif  // UJOIN_VERIFY_TRIE_WALK_H_
