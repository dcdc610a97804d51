#ifndef HOLOCLEAN_MODEL_DOMAIN_PRUNING_H_
#define HOLOCLEAN_MODEL_DOMAIN_PRUNING_H_

#include <unordered_map>
#include <vector>

#include "holoclean/stats/cooccurrence.h"
#include "holoclean/storage/dataset.h"

namespace holoclean {

/// Output of Algorithm 2: the candidate-repair set for each noisy cell.
struct PrunedDomains {
  std::unordered_map<CellRef, std::vector<ValueId>, CellRefHash> candidates;

  /// Sum of candidate-set sizes — the number of random-variable states.
  size_t TotalCandidates() const {
    size_t n = 0;
    for (const auto& [cell, cand] : candidates) n += cand.size();
    return n;
  }

  const std::vector<ValueId>& For(const CellRef& cell) const {
    static const std::vector<ValueId> kEmpty;
    auto it = candidates.find(cell);
    return it == candidates.end() ? kEmpty : it->second;
  }
};

/// Options for domain pruning.
struct DomainPruningOptions {
  /// The co-occurrence threshold τ of Algorithm 2: value v is a candidate
  /// for cell c when Pr[v | v_c'] >= tau for some other cell c' of c's tuple.
  double tau = 0.5;
  /// Hard cap on candidates per cell (keeps grounding bounded even for very
  /// low τ); candidates with the highest co-occurrence counts are kept.
  size_t max_candidates = 64;
  /// When true, cells whose tuple context is entirely NULL fall back to the
  /// most frequent values of the attribute.
  bool frequency_fallback = true;
};

/// Algorithm 2 of the paper: candidate repairs for every cell in `cells`
/// are the values of the cell's attribute that co-occur with the tuple's
/// other cell values with conditional probability >= τ. The observed value
/// is always a candidate. Cells fan out across the pool.
///
/// Each context cell's code indexes `cooc` directly (`cooc` must have been
/// built from `table`, unchanged since), and its count-ordered run is read
/// only up to the first entry with pair count below τ·#v'. The result is
/// exactly the full scan's: the early exit applies the full scan's test,
/// `pair_count >= τ·#v'`, so for any τ — τ <= 0 (every entry passes), τ > 1
/// (none do) and NaN (none do) included — the entries it keeps are a
/// prefix of the run in count-descending order and the multiset of hits is
/// the same. Since a run's counts sum to at most #v', at most ⌊1/τ⌋ entries
/// pass, so pruning reads what passes plus one entry per context instead
/// of whole runs. Per-cell scoring then sorts the hits and keeps the best
/// count per value (the per-cell hash-map scan of whole runs is the
/// reference in tests/oracle/).
PrunedDomains PruneDomainsColumnar(const Table& table,
                                   const std::vector<CellRef>& cells,
                                   const std::vector<AttrId>& attrs,
                                   const CooccurrenceStats& cooc,
                                   const DomainPruningOptions& options,
                                   ThreadPool* pool = nullptr);

}  // namespace holoclean

#endif  // HOLOCLEAN_MODEL_DOMAIN_PRUNING_H_
