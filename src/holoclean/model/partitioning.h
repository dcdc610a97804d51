#ifndef HOLOCLEAN_MODEL_PARTITIONING_H_
#define HOLOCLEAN_MODEL_PARTITIONING_H_

#include <vector>

#include "holoclean/detect/violation_detector.h"

namespace holoclean {

/// Output of Algorithm 3: for each denial constraint, the groups of tuples
/// (connected components of the conflict hypergraph restricted to that
/// constraint) inside which DC factors are grounded.
struct TupleGroups {
  /// groups_per_dc[dc_index] = list of groups; each group is a sorted list
  /// of tuple ids. Singleton components are dropped (no pairs to ground).
  std::vector<std::vector<std::vector<TupleId>>> groups_per_dc;

  /// Σ over groups of |g|·(|g|-1)/2 — the pair budget after partitioning.
  size_t TotalPairs() const;
};

/// Algorithm 3 of the paper: partitions tuples into per-constraint groups
/// using the connected components of the detected violations. A conflict
/// block is a component as it stands (its members conflict pairwise across
/// values); pairs are joined with union-find. Groups ascend by first member.
TupleGroups BuildTupleGroups(size_t num_tuples, size_t num_dcs,
                             const ViolationSet& violations);

}  // namespace holoclean

#endif  // HOLOCLEAN_MODEL_PARTITIONING_H_
