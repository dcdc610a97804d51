#ifndef HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_
#define HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_

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

/// Output of block-limited delta re-detection (DetectAppended /
/// DetectForTuple): only the violations that involve the delta tuples,
/// per constraint, in the exact order a full DetectAll discovers them —
/// so merging them into a cached full result reproduces DetectAll over the
/// current table bit for bit.
struct DeltaDetectResult {
  /// per_dc[s]: violations of DC s involving at least one delta tuple,
  /// sorted by (t1, t2). For recomputed DCs, the constraint's FULL
  /// violation list instead.
  std::vector<std::vector<Violation>> per_dc;
  /// DCs with no cross-tuple equality predicate have no blocking structure
  /// to limit the delta to (the budgeted fallback scan is a prefix property
  /// of the whole pair sequence), so they are recomputed wholesale;
  /// per_dc[s] then replaces — not merges into — the cached list.
  std::vector<uint8_t> recomputed;
  /// Truncation among the recomputed DCs (blocked DCs never truncate).
  std::vector<int> truncated_dcs;
};

/// Finds all denial-constraint violations in a table.
///
/// Two-tuple constraints are evaluated with hash blocking on their cross-
/// tuple equality predicates, which reduces the quadratic pair scan to
/// within-block comparisons (the same trick DeepDive's grounding relies on;
/// see paper Section 5.1.2). Constraints without an equality predicate fall
/// back to the full pair scan, capped at `max_fallback_pairs`.
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

  /// All violations, deduplicated on (constraint, unordered tuple pair).
  std::vector<Violation> Detect() const;

  /// Like Detect(), also reporting which DCs were truncated by the
  /// fallback pair budget.
  DetectResult DetectAll() const;

  /// Violations of a single constraint.
  std::vector<Violation> DetectOne(int dc_index) const;

  /// Block-limited delta detection for appended tuples: all violations
  /// involving at least one tuple with index >= old_rows, per constraint.
  /// Appends do not change existing tuples, so a cached DetectAll over the
  /// first old_rows rows plus this delta IS DetectAll over the current
  /// table (see MergeAppendDelta). Cost is proportional to the key scans
  /// plus the pairs the new tuples' blocks contribute — never the old
  /// pairs.
  DeltaDetectResult DetectAppended(size_t old_rows) const;

  /// Block-limited delta re-detection for one changed tuple (the feedback
  /// pin path): all violations involving `changed` under its current
  /// values, per constraint, in full-scan discovery order. Merging with a
  /// cached result purged of the tuple's old violations reproduces a full
  /// re-detection (see MergeTupleDelta).
  DeltaDetectResult DetectForTuple(TupleId changed) const;

  /// Merges a cached DetectAll result (over the first old_rows rows) with
  /// a DetectAppended delta into the full-table DetectAll output,
  /// bit-identical including violation order.
  static DetectResult MergeAppendDelta(std::vector<Violation> cached,
                                       size_t num_dcs,
                                       DeltaDetectResult delta);

  /// Drops every cached violation involving `changed` and merges the
  /// DetectForTuple delta in, reproducing a full re-detection of the
  /// current table bit for bit.
  static DetectResult MergeTupleDelta(std::vector<Violation> cached,
                                      TupleId changed, size_t num_dcs,
                                      DeltaDetectResult delta);

  /// Cells participating in any violation — the noisy set Dn the paper uses
  /// for all four datasets ("we seek to repair cells that participate in
  /// violations of integrity constraints").
  static NoisyCells NoisyFromViolations(const std::vector<Violation>& violations);

  const DcEvaluator& evaluator() const { return evaluator_; }

 private:
  std::vector<Violation> DetectOneImpl(int dc_index, bool* truncated) const;
  /// One constraint's delta: dispatches on constraint shape; `old_rows`
  /// delimits appended tuples, or `changed` >= 0 names the edited tuple.
  std::vector<Violation> DeltaOne(int dc_index, size_t old_rows,
                                  TupleId changed, bool* recomputed,
                                  bool* truncated) const;
  std::vector<Violation> DeltaTwoTupleAppended(int dc_index,
                                               size_t old_rows) const;
  std::vector<Violation> DeltaTwoTupleChanged(int dc_index,
                                              TupleId changed) const;
  DeltaDetectResult DetectDeltaImpl(size_t old_rows, TupleId changed) const;
  static DetectResult MergeDeltaImpl(std::vector<Violation> cached,
                                     TupleId changed, size_t num_dcs,
                                     DeltaDetectResult delta);
  std::vector<Violation> DetectTwoTuple(int dc_index, bool* truncated) const;
  std::vector<Violation> DetectSingleTuple(int dc_index) const;
  Violation MakeViolation(int dc_index, TupleId t1, TupleId t2) const;

  const Table* table_;
  const std::vector<DenialConstraint>* dcs_;
  Options options_;
  DcEvaluator evaluator_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_DETECT_VIOLATION_DETECTOR_H_
