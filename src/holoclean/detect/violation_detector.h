#ifndef HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_
#define HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_

#include <utility>
#include <vector>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/storage/dataset.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// One detected denial-constraint violation: the constraint, the tuple pair
/// (t2 == t1 for single-tuple constraints), and the participating cells.
struct Violation {
  int dc_index = 0;
  TupleId t1 = 0;
  TupleId t2 = 0;
  std::vector<CellRef> cells;
};

/// Full detection output: the violations plus which constraints hit the
/// brute-force pair budget (their violation lists may under-cover).
struct DetectResult {
  std::vector<Violation> violations;
  /// Indices of DCs whose fallback pair scan exhausted `max_fallback_pairs`,
  /// ascending.
  std::vector<int> truncated_dcs;
};

/// One constraint's detected violations, in the form the pipeline keeps.
/// FD-shaped constraints (DenialConstraint::FdTargetAttr() >= 0 with at
/// least one cross equality) fill `blocks`; every other constraint fills
/// `pairs`.
struct DcViolations {
  /// Conflict blocks: per blocking key, the tuples carrying a non-null
  /// value of the ≠ attribute, ascending — kept only when they hold at
  /// least two distinct values. Every member pair with different values is
  /// a violation, so each block is one of the constraint's Algorithm-3
  /// tuple groups. Ascending by first member.
  std::vector<std::vector<TupleId>> blocks;
  /// Violating tuple pairs in discovery order (t2 == t1 for single-tuple
  /// constraints); the cells are the constraint's cell template over them.
  std::vector<std::pair<TupleId, TupleId>> pairs;
  /// Number of violations: pairs.size(), or Σ (k² − Σ c²) / 2 over the
  /// blocks (k members, c per distinct value).
  size_t count = 0;
  /// The pair scan exhausted `max_fallback_pairs` (its pairs under-cover).
  bool truncated = false;

  bool operator==(const DcViolations& other) const {
    return blocks == other.blocks && pairs == other.pairs &&
           count == other.count && truncated == other.truncated;
  }
};

/// The pipeline's violation set: per constraint, conflict blocks or pairs.
/// Unlike a materialized pair list it never grows with the square of a
/// block's size.
struct ViolationSet {
  std::vector<DcViolations> per_dc;

  /// Total violations over all constraints.
  size_t size() const;
  /// Indices of the constraints whose pair scan was truncated, ascending.
  std::vector<int> TruncatedDcs() const;

  bool operator==(const ViolationSet& other) const {
    return per_dc == other.per_dc;
  }
};

/// Everything the detect stage derives from the constraints (truncation
/// included: violations.TruncatedDcs()).
struct DetectArtifacts {
  ViolationSet violations;
  /// Cells participating in any violation, in the order a scan of the
  /// materialized pair list (DetectAll) first meets them: by constraint,
  /// then by discovery order. Query-variable ids follow this order.
  NoisyCells noisy;
};

/// Finds all denial-constraint violations in a table.
///
/// Two-tuple constraints are evaluated with hash blocking on their cross-
/// tuple equality predicates, which reduces the quadratic pair scan to
/// within-block comparisons (the same trick DeepDive's grounding relies on;
/// see paper Section 5.1.2). Constraints without an equality predicate fall
/// back to the full pair scan, capped at `max_fallback_pairs`.
///
/// The pipeline calls DetectSet(): FD-shaped constraints — every DC
/// FdToDenialConstraints emits — never enumerate a pair there. Their
/// blocks yield the noisy cells, the violation count, and the tuple groups
/// in time linear in the table. DetectAll() materializes every violation
/// with its cells, for the callers that need the pairs themselves (the
/// holistic baseline, the conflict hypergraph, and the tests).
///
/// Predicates are evaluated columnar: single-role predicates become
/// per-tuple verdict masks computed by scanning the ColumnStore's code
/// arrays (constant predicates resolve once per distinct code), and
/// cross-tuple predicates become integer comparisons over the decoded id
/// arrays. The row-at-a-time reference the differential tests compare
/// against lives in tests/oracle/.
class ViolationDetector {
 public:
  struct Options {
    double sim_threshold = 0.8;
    /// Upper bound on brute-force pair comparisons for constraints with no
    /// equality predicate to block on.
    size_t max_fallback_pairs = 4'000'000;
    /// Optional worker pool: constraints are detected in parallel (the
    /// result is identical to the sequential order).
    ThreadPool* pool = nullptr;
  };

  ViolationDetector(const Table* table,
                    const std::vector<DenialConstraint>* dcs,
                    Options options);
  ViolationDetector(const Table* table,
                    const std::vector<DenialConstraint>* dcs)
      : ViolationDetector(table, dcs, Options()) {}

  /// The pipeline's detection: the violation set and the noisy cells.
  /// Noisy cells, counts, and truncation equal what DetectAll's pair list
  /// implies, cell order included.
  DetectArtifacts DetectSet() const;

  /// All violations, deduplicated on (constraint, unordered tuple pair).
  std::vector<Violation> Detect() const;

  /// Like Detect(), also reporting which DCs were truncated by the
  /// fallback pair budget.
  DetectResult DetectAll() const;

  /// Cells participating in any violation — the noisy set Dn the paper uses
  /// for all four datasets ("we seek to repair cells that participate in
  /// violations of integrity constraints").
  static NoisyCells NoisyFromViolations(const std::vector<Violation>& violations);

  const DcEvaluator& evaluator() const { return evaluator_; }

 private:
  /// One constraint's violating pairs in discovery order.
  std::vector<std::pair<TupleId, TupleId>> ScanPairs(int dc_index,
                                                     bool* truncated) const;
  std::vector<std::pair<TupleId, TupleId>> ScanTwoTuple(int dc_index,
                                                        bool* truncated) const;
  /// One FD-shaped constraint's conflict blocks and violation count.
  DcViolations DetectBlocks(int dc_index, AttrId target) const;
  /// Runs `fn(i)` for every constraint index, on the pool when there is one.
  template <typename Fn>
  void ForEachDc(Fn fn) const;

  const Table* table_;
  const std::vector<DenialConstraint>* dcs_;
  Options options_;
  DcEvaluator evaluator_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_
