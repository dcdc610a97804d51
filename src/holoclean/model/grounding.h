#ifndef HOLOCLEAN_MODEL_GROUNDING_H_
#define HOLOCLEAN_MODEL_GROUNDING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/extdata/matcher.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/model/partitioning.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// How denial constraints enter the model (the HoloClean variants of §6.3.1).
enum class DcMode {
  /// "DC Factors": pairwise factors enforcing the constraint softly.
  kFactors,
  /// "DC Feats": the relaxation of §5.2 — unary violation-count features
  /// against other tuples' observed values; variables stay independent.
  kFeatures,
  /// "DC Feats + DC Factors".
  kBoth,
};

/// Knobs of the grounding engine.
struct GroundingOptions {
  DcMode dc_mode = DcMode::kFeatures;
  /// Restrict DC-factor pairs to the tuple groups of Algorithm 3.
  bool use_partitioning = false;
  /// Fixed soft weight w of DC factors (Algorithm 1).
  double dc_factor_weight = 4.0;
  /// Weight w0 of the minimality prior.
  double minimality_weight = 1.0;
  /// Similarity threshold for ≈ predicates.
  double sim_threshold = 0.8;
  /// Cap on the violation-count activation of relaxed DC features. The cap
  /// saturates both sides of a dense conflict block, which keeps a large
  /// wrong majority (systematic errors) from dominating the statistics
  /// signals.
  int max_violation_count = 5;
  /// Cap on the per-source partner-support activation, for the same reason.
  int max_support_count = 5;
  /// Cap on partner tuples examined per (cell, candidate, constraint).
  size_t max_partner_checks = 256;
  /// Cap on candidate-expanded blocking keys per tuple (DC factors without
  /// partitioning).
  size_t max_keys_per_tuple = 32;
  /// Cap on grounded pairs per constraint for DC factors.
  size_t max_pairs_per_dc = 500'000;
  /// Optional worker pool: variables are grounded in parallel (the result
  /// is identical to the sequential order).
  ThreadPool* pool = nullptr;
};

/// Everything the grounder reads. All pointers are borrowed and must
/// outlive the grounder; `matches` and `violations` may be null when the
/// corresponding signal is absent.
struct GroundingInput {
  const Table* table = nullptr;
  const std::vector<DenialConstraint>* dcs = nullptr;
  const std::vector<AttrId>* attrs = nullptr;
  const std::vector<CellRef>* query_cells = nullptr;
  const std::vector<CellRef>* evidence_cells = nullptr;
  /// Candidate sets covering both query and evidence cells.
  const PrunedDomains* domains = nullptr;
  /// Co-occurrence statistics for the probability-valued features, built
  /// from `table` and unchanged since: they are read by its cells' codes.
  const CooccurrenceStats* cooc = nullptr;
  const std::vector<MatchedEntry>* matches = nullptr;
  const ViolationSet* violations = nullptr;
  /// Precomputed Algorithm-3 tuple groups. When null and partitioning is
  /// enabled, the grounder builds them from `violations` on demand. The
  /// pipeline passes its context-owned copy so the groups that drove
  /// grounding stay inspectable after the run (stats, tests, benches).
  const TupleGroups* groups = nullptr;
  AttrId source_attr = -1;
};

/// Grounds the compiled program into a FactorGraph: instantiates one
/// variable per cell, attaches the unary feature factors (co-occurrence,
/// source, dictionary, minimality, relaxed DC features) and, depending on
/// DcMode, the pairwise DC factors (paper Sections 4.2 and 5).
class Grounder {
 public:
  struct Stats {
    size_t num_query_vars = 0;
    size_t num_evidence_vars = 0;
    size_t num_feature_instances = 0;
    size_t num_dc_factors = 0;
    size_t num_dc_pairs_considered = 0;
  };

  Grounder(GroundingInput input, GroundingOptions options);

  /// Builds the factor graph. Fails on malformed input (e.g. a query cell
  /// with no candidates).
  Result<FactorGraph> Ground();

  const Stats& stats() const { return stats_; }

 private:
  // Per-constraint blocking index over the observed table: for each tuple
  // role, maps the equality-key hash to the tuples with that key.
  struct DcIndex {
    bool usable = false;
    std::unordered_map<uint64_t, std::vector<TupleId>> by_role[2];
  };

  void BuildDcIndexes();
  uint64_t RoleKey(int dc_index, TupleId t, int role,
                   const std::vector<CellOverride>& overrides) const;
  /// #partners whose pairing with (cell := candidate) violates `dc`.
  int CountViolations(int dc_index, const CellRef& cell,
                      ValueId candidate) const;
  /// #partners agreeing with candidate on an FD-shaped constraint, per
  /// supporting source (kNull when no provenance).
  std::unordered_map<ValueId, int> SupportBySource(int dc_index,
                                                   const CellRef& cell,
                                                   ValueId candidate) const;

  Result<Variable> BuildVariable(const CellRef& cell,
                                 bool is_evidence) const;
  void GroundDcFactors(FactorGraph* graph);
  /// Grounds one constraint's DC factors inside its Algorithm-3 groups.
  /// Groups are disjoint tuple sets, so per-group factor lists are built
  /// concurrently on the pool and appended in group order — factor ids are
  /// identical for any thread count.
  void GroundPartitionedDc(FactorGraph* graph, int dc_index,
                           const std::vector<std::vector<TupleId>>& groups);

  GroundingInput in_;
  GroundingOptions opt_;
  DcEvaluator evaluator_;
  std::vector<DcIndex> dc_indexes_;
  /// Per-DC caches of CrossEqualities() / AttrsOfRole(role), which would
  /// otherwise be re-derived (with allocations) on every RoleKey /
  /// CountViolations call in the per-candidate loops.
  std::vector<std::vector<const Predicate*>> cross_eqs_;
  std::vector<std::vector<AttrId>> role_attrs_[2];
  /// For FD-shaped constraints: the attribute their NEQ predicate targets
  /// (-1 when the constraint is not FD-shaped).
  std::vector<AttrId> fd_target_attr_;
  std::unordered_map<CellRef, std::vector<std::pair<ValueId, int>>,
                     CellRefHash>
      matches_by_cell_;
  Stats stats_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_MODEL_GROUNDING_H_
