#include "verify/verifier.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "text/edit_distance.h"
#include "text/possible_worlds.h"
#include "util/check.h"
#include "util/math_util.h"
#include "verify/compressed_verifier.h"
#include "verify/trie_walk.h"

namespace ujoin {

namespace {

/// TrieWalk over the plain T_R, whose positions are node ids.
class TrieWalker
    : public internal::TrieWalk<TrieWalker, InstanceTrie, int32_t> {
 public:
  using TrieWalk::TrieWalk;

 private:
  friend TrieWalk;
  using Entry = internal::ActiveEntry<int32_t>;

  // A(ε): every T_R node of depth <= k, at distance equal to its depth.
  // BFS ids are level-ordered, so these nodes form a prefix of the id range.
  void FillRoot(ActiveSet* root) {
    const int64_t shallow = trie_.PrefixesAtDepths(0, k_);
    for (int32_t id = 0; id < shallow; ++id) {
      root->push_back(Entry{id, trie_.node(id).depth});
    }
  }

  bool IsInstance(int32_t v) const { return trie_.IsLeaf(v); }
  double InstanceProb(int32_t v) const { return trie_.node(v).prob; }

  /// Fills `next` with A(u·c) from `active` = A(u); false when it is empty.
  /// D(u·c, v) = min over match/substitute (diagonal), delete c (up),
  /// insert symbol(v) (left), exactly the edit-distance DP evaluated over
  /// trie paths.
  ///
  /// Candidate nodes — the root, members of A(u), their children, and the
  /// children of anything entering A(u·c) (insertion chains) — are visited
  /// in ascending id order so a node's parent is always resolved before the
  /// node.  BFS order makes each candidate stream sorted on its own: A(u)
  /// is, the children of its members are ascending ranges, and so are the
  /// children of A(u·c)'s members, read by a cursor over `next` as it
  /// grows, so a three-way min-merge of the streams yields the candidates.
  /// parent(v) is non-decreasing in BFS order, so the DP's three lookups —
  /// v and parent(v) in A(u), parent(v) in A(u·c) — are monotone cursors.
  bool Extend(const ActiveSet& active, char c, int new_len, ActiveSet* next) {
    constexpr int32_t kNone = std::numeric_limits<int32_t>::max();
    size_t a = 0;  // stream 1: A(u) itself, also the cursor for v in A(u)
    // The root is nobody's child: ed(u·c, ε) = |u·c| settles it up front.
    if (new_len <= k_) next->push_back(Entry{trie_.root(), new_len});
    if (!active.empty() && active[0].pos == trie_.root()) a = 1;
    internal::ChildStream kids, inserts;  // streams 2 and 3
    auto children = [this](const Entry& e) {
      const auto& node = trie_.node(e.pos);
      return std::pair{node.first_child, node.first_child + node.num_children};
    };
    size_t parent_in_active = 0, parent_in_next = 0;
    for (;;) {
      kids.Fill(active, children);
      inserts.Fill(*next, children);
      const int32_t v = inserts.Min(
          kids.Min(a < active.size() ? active[a].pos : kNone));
      if (v == kNone) break;
      kids.Skip(v);
      inserts.Skip(v);
      int32_t best = k_ + 1;
      if (a < active.size() && active[a].pos == v) {
        best = active[a++].dist + 1;  // delete c
      }
      const auto& node = trie_.node(v);
      const int32_t parent_du =
          internal::Seek(active, &parent_in_active, node.parent);
      if (parent_du >= 0) {
        best = std::min(best, parent_du + (node.symbol == c ? 0 : 1));
      }
      const int32_t parent_dnext =
          internal::Seek(*next, &parent_in_next, node.parent);
      if (parent_dnext >= 0) {
        best = std::min(best, parent_dnext + 1);  // insert symbol(v)
      }
      if (best <= k_) next->push_back(Entry{v, best});  // ids ascend
    }
    return !next->empty();
  }
};

}  // namespace

Result<TrieVerifier> TrieVerifier::Create(const UncertainString& r, int k,
                                          const VerifyOptions& options) {
  UJOIN_CHECK(k >= 0);
  Result<InstanceTrie> trie = InstanceTrie::Build(r, options.max_trie_nodes);
  if (!trie.ok()) return trie.status();
  return TrieVerifier(std::move(trie).value(), k);
}

double TrieVerifier::Probability(const UncertainString& s,
                                 VerifyStats* stats) const {
  return internal::Walk<TrieWalker>(trie_, s, k_, /*tau=*/-1.0, stats).lower;
}

ThresholdVerdict TrieVerifier::DecideSimilar(const UncertainString& s,
                                             double tau,
                                             VerifyStats* stats) const {
  UJOIN_CHECK(tau >= 0.0 && tau <= 1.0);
  return internal::Walk<TrieWalker>(trie_, s, k_, tau, stats);
}

Result<double> TrieVerifyProbability(const UncertainString& r,
                                     const UncertainString& s, int k,
                                     const VerifyOptions& options,
                                     VerifyStats* stats) {
  Result<TrieVerifier> verifier = TrieVerifier::Create(r, k, options);
  if (!verifier.ok()) return verifier.status();
  return verifier->Probability(s, stats);
}

Result<double> VerifyPairProbability(const UncertainString& r,
                                     const UncertainString& s, int k,
                                     const VerifyOptions& options,
                                     VerifyStats* stats) {
  // A string's trie has at most WorldCount() nodes per level; prefer the
  // side with fewer worlds as the materialized T_R.
  const UncertainString* first = &r;
  const UncertainString* second = &s;
  if (s.WorldCount() < r.WorldCount()) std::swap(first, second);
  Result<double> out = TrieVerifyProbability(*first, *second, k, options, stats);
  if (out.ok()) return out;
  out = TrieVerifyProbability(*second, *first, k, options, stats);
  if (out.ok()) return out;
  // The plain tries overflowed: the path-compressed trie's node budget is
  // independent of string length and usually still fits.
  out = CompressedTrieVerifyProbability(*first, *second, k, options, stats);
  if (out.ok()) return out;
  out = CompressedTrieVerifyProbability(*second, *first, k, options, stats);
  if (out.ok()) return out;
  return NaiveVerifyProbability(r, s, k, options, stats);
}

Result<double> NaiveVerifyProbability(const UncertainString& r,
                                      const UncertainString& s, int k,
                                      const VerifyOptions& options,
                                      VerifyStats* stats) {
  UJOIN_CHECK(k >= 0);
  const int64_t pairs = SaturatingMul(r.WorldCount(), s.WorldCount());
  if (pairs > options.max_world_pairs) {
    return Status::ResourceExhausted(
        "naive verification over " + std::to_string(pairs) +
        " world pairs exceeds the cap of " +
        std::to_string(options.max_world_pairs));
  }
  double total = 0.0;
  ForEachWorld(r, [&](const std::string& ri, double pi) {
    ForEachWorld(s, [&](const std::string& sj, double pj) {
      if (stats != nullptr) ++stats->world_pairs;
      if (BoundedEditDistance(ri, sj, k) <= k) total += pi * pj;
    });
  });
  return ClampProb(total);
}

int64_t PairWorldCount(const UncertainString& r, const UncertainString& s) {
  return SaturatingMul(r.WorldCount(), s.WorldCount());
}

bool ExceedsWorldBudget(int64_t pair_world_count, int64_t budget) {
  return budget > 0 && pair_world_count > budget;
}

}  // namespace ujoin
