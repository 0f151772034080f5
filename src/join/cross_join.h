#ifndef UJOIN_JOIN_CROSS_JOIN_H_
#define UJOIN_JOIN_CROSS_JOIN_H_

#include "join/self_join.h"

namespace ujoin {

/// \brief Result of a two-collection join: pairs (lhs, rhs) where `lhs`
/// indexes the left collection and `rhs` the right one (no ordering
/// relation between the two indices, unlike SelfJoinResult).
struct CrossJoinResult {
  std::vector<JoinPair> pairs;  // sorted by (lhs, rhs)
  JoinStats stats;
};

/// General similarity join between two collections (the paper's problem
/// statement before its WLOG reduction to the self-join): all pairs
/// (R, S) ∈ left × right with Pr(ed(R, S) <= k) > τ.
///
/// The smaller collection is indexed once (inverted segment index plus
/// frequency summaries) and the other collection probes it with
/// SimilaritySearcher::SearchMany, through the same filter cascade as the
/// self-join.
Result<CrossJoinResult> SimilarityJoin(
    const std::vector<UncertainString>& left,
    const std::vector<UncertainString>& right, const Alphabet& alphabet,
    const JoinOptions& options);

}  // namespace ujoin

#endif  // UJOIN_JOIN_CROSS_JOIN_H_
