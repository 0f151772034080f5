#include "verify/compressed_verifier.h"

#include <algorithm>
#include <compare>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "verify/trie_walk.h"

namespace ujoin {

namespace {

/// A virtual trie position: character `offset` of `node`'s label.  The
/// sentinel offset -1 on the root denotes the empty prefix ε (it doubles as
/// "last virtual position" of an empty-label root, which keeps parent
/// arithmetic uniform).
struct VirtualNode {
  int32_t node;
  int32_t offset;

  friend auto operator<=>(const VirtualNode&, const VirtualNode&) = default;
};

/// TrieWalk over the compressed T_R, whose positions are virtual.
class CompressedTrieWalker
    : public internal::TrieWalk<CompressedTrieWalker, CompressedInstanceTrie,
                                VirtualNode> {
 public:
  using TrieWalk::TrieWalk;

 private:
  friend TrieWalk;
  using Entry = internal::ActiveEntry<VirtualNode>;

  // A(ε): ε at distance 0, then every virtual position of depth <= k.
  // Label start depths ascend with node ids, so an id-order scan lists the
  // positions in (node, offset) order and may stop at the first node whose
  // label starts at depth k or deeper.
  void FillRoot(ActiveSet* root) {
    root->push_back(Entry{VirtualNode{trie_.root(), -1}, 0});
    for (int32_t n = 0; n < trie_.num_nodes() && trie_.StartDepth(n) < k_;
         ++n) {
      const int len = std::min(trie_.LabelLength(n), k_ - trie_.StartDepth(n));
      for (int off = 0; off < len; ++off) {
        const int depth = trie_.StartDepth(n) + off + 1;
        root->push_back(Entry{VirtualNode{n, off}, depth});
      }
    }
  }

  // A full instance of R ends at a leaf node's last position.
  bool IsInstance(const VirtualNode& v) const {
    return trie_.IsLeafNode(v.node) && v == LastPosition(v.node);
  }
  double InstanceProb(const VirtualNode& v) const {
    return trie_.node(v.node).prob;
  }

  // The last virtual position of `node` (ε for an empty-label root): the
  // only one whose children are child nodes.
  VirtualNode LastPosition(int32_t node) const {
    return VirtualNode{node, trie_.LabelLength(node) - 1};
  }

  /// Fills `next` with A(u·c) from `active` = A(u); false when it is empty.
  /// TrieWalker::Extend's DP over virtual positions in (node, offset)
  /// order, node by node: the root first, then candidate nodes from the
  /// same three sorted streams — the nodes of A(u), and the child ranges of
  /// the members of A(u) and of A(u·c) that end their node's label.  The
  /// parent of (n, 0) is parent(n)'s last position (ε for the root), found
  /// by monotone cursors because parent(n) is non-decreasing in level
  /// order; ScanLabel does the rest.
  bool Extend(const ActiveSet& active, char c, int new_len, ActiveSet* next) {
    constexpr int32_t kNone = std::numeric_limits<int32_t>::max();
    const VirtualNode epsilon{trie_.root(), -1};
    // ε is settled up front: ed(u·c, ε) = |u·c|.
    size_t a = !active.empty() && active[0].pos == epsilon ? 1 : 0;
    if (new_len <= k_) next->push_back(Entry{epsilon, new_len});
    internal::ChildStream kids, inserts;
    auto children = [this](const Entry& e) {
      const auto& n = trie_.node(e.pos.node);
      return e.pos == LastPosition(e.pos.node)
                 ? std::pair{n.first_child, n.first_child + n.num_children}
                 : std::pair{0, 0};
    };
    size_t parent_in_active = 0, parent_in_next = 0;
    VirtualNode parent = epsilon;
    for (int32_t n = trie_.root(); n != kNone;) {
      ScanLabel(n, internal::Seek(active, &parent_in_active, parent),
                internal::Seek(*next, &parent_in_next, parent), active, &a, c,
                next);
      kids.Fill(active, children);
      inserts.Fill(*next, children);
      n = inserts.Min(kids.Min(a < active.size() ? active[a].pos.node : kNone));
      kids.Skip(n);
      inserts.Skip(n);
      if (n != kNone) parent = LastPosition(trie_.node(n).parent);
    }
    return !next->empty();
  }

  /// Evaluates node n's label positions in offset order.  `up_du` /
  /// `up_dnext` are the distances of (n, 0)'s parent in A(u) / A(u·c), -1
  /// when absent; the parent of (n, o > 0) is the position scanned just
  /// before it.  `*a`, the A(u) cursor, is left past n's members.
  void ScanLabel(int32_t n, int32_t up_du, int32_t up_dnext,
                 const ActiveSet& active, size_t* a, char c,
                 ActiveSet* next) {
    const int len = trie_.LabelLength(n);
    for (int32_t off = 0; off < len; ++off) {
      if (up_du < 0 && up_dnext < 0) {
        // Unreachable from its parent: only a deletion from A(u) can make
        // a position active, so jump to n's next member of A(u).
        if (*a == active.size() || active[*a].pos.node != n) return;
        off = active[*a].pos.offset;
      }
      int32_t best = k_ + 1;
      int32_t self_du = -1;
      if (*a < active.size() && active[*a].pos == VirtualNode{n, off}) {
        self_du = active[(*a)++].dist;
        best = self_du + 1;  // delete c
      }
      if (up_du >= 0) {
        const int32_t cost = trie_.LabelChar(n, off) == c ? 0 : 1;
        best = std::min(best, up_du + cost);  // diagonal
      }
      if (up_dnext >= 0) best = std::min(best, up_dnext + 1);  // insert
      up_du = self_du;
      up_dnext = best <= k_ ? best : -1;
      if (up_dnext >= 0) next->push_back(Entry{VirtualNode{n, off}, best});
    }
  }
};

}  // namespace

Result<CompressedTrieVerifier> CompressedTrieVerifier::Create(
    const UncertainString& r, int k, const VerifyOptions& options) {
  UJOIN_CHECK(k >= 0);
  Result<CompressedInstanceTrie> trie =
      CompressedInstanceTrie::Build(r, options.max_trie_nodes);
  if (!trie.ok()) return trie.status();
  return CompressedTrieVerifier(std::move(trie).value(), k);
}

double CompressedTrieVerifier::Probability(const UncertainString& s,
                                           VerifyStats* stats) const {
  return internal::Walk<CompressedTrieWalker>(trie_, s, k_, /*tau=*/-1.0,
                                              stats)
      .lower;
}

ThresholdVerdict CompressedTrieVerifier::DecideSimilar(
    const UncertainString& s, double tau, VerifyStats* stats) const {
  UJOIN_CHECK(tau >= 0.0 && tau <= 1.0);
  return internal::Walk<CompressedTrieWalker>(trie_, s, k_, tau, stats);
}

Result<double> CompressedTrieVerifyProbability(const UncertainString& r,
                                               const UncertainString& s, int k,
                                               const VerifyOptions& options,
                                               VerifyStats* stats) {
  Result<CompressedTrieVerifier> verifier =
      CompressedTrieVerifier::Create(r, k, options);
  if (!verifier.ok()) return verifier.status();
  return verifier->Probability(s, stats);
}

}  // namespace ujoin
