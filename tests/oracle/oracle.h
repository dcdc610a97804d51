#ifndef HOLOCLEAN_TESTS_ORACLE_ORACLE_H_
#define HOLOCLEAN_TESTS_ORACLE_ORACLE_H_

// Reference implementations of the pipeline's layers, kept only as test
// oracles: the row-at-a-time detection, statistics, and pruning scans, and
// the FactorGraph interpreters for SGD, Gibbs sampling, and exact
// marginals. Each production layer (ViolationDetector, CooccurrenceStats,
// PruneDomainsColumnar, SgdLearner, GibbsSampler, ExactIndependentMarginals
// over a CompiledGraph) must stay bit-identical to its oracle here; the
// differential tests and the two component benches that compare against a
// reference (micro_detect, micro_perf) link this library. Nothing under
// src/ or tools/ may.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "holoclean/core/pipeline_context.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/model/partitioning.h"
#include "holoclean/stats/cooccurrence.h"

namespace holoclean {
namespace oracle {

// --- Detect -----------------------------------------------------------------

/// Row-at-a-time violation detection: every predicate through DcEvaluator,
/// one tuple pair at a time, with hash blocking on the cross-tuple
/// equalities and the budgeted brute-force scan for DCs without one.
/// Violations come per DC in discovery order, deduplicated on unordered
/// tuple pairs; truncated_dcs names the DCs whose budget ran out.
DetectResult DetectViolations(const Table& table,
                              const std::vector<DenialConstraint>& dcs,
                              double sim_threshold = 0.8,
                              size_t max_fallback_pairs = 4'000'000);

/// Describes the first difference between two violation lists (order,
/// constraint, tuple pair, and cells), or returns "" when they are equal.
std::string DiffViolations(const std::vector<Violation>& got,
                           const std::vector<Violation>& expected);

/// Checks a violation set and its noisy cells against a materialized pair
/// list over a table of `num_tuples` rows: the per-constraint counts, the
/// pairs of every constraint kept as pairs, the truncated constraints, the
/// noisy cells in order, and the tuple groups (production BuildTupleGroups
/// over the set vs the pair-list BuildTupleGroups below). Describes the
/// first difference, or returns "".
std::string DiffViolationSet(const ViolationSet& got,
                             const NoisyCells& got_noisy,
                             const DetectResult& expected, size_t num_tuples);

// --- Stats ------------------------------------------------------------------

/// A plain row-at-a-time recount of what CooccurrenceStats holds.
struct CooccurrenceCounts {
  /// (attr, value) -> #tuples.
  std::map<std::pair<AttrId, ValueId>, int> value_counts;
  /// (attr, context attr, context value) -> (value, #tuples), ascending by
  /// value.
  std::map<std::tuple<AttrId, AttrId, ValueId>,
           std::vector<std::pair<ValueId, int>>>
      pairs;
  /// Distinct non-null values per attribute id, ascending.
  std::map<AttrId, std::vector<ValueId>> domains;
  /// (attr, value) -> the value's code in the table's column.
  std::map<std::pair<AttrId, ValueId>, Code> codes;
  size_t num_pair_entries = 0;
};

/// Counts values and ordered value pairs of `attrs` tuple by tuple (NULL
/// cells skipped).
CooccurrenceCounts CountCooccurrence(const Table& table,
                                     const std::vector<AttrId>& attrs);

/// Checks `stats` against the recount through its public accessors (Count,
/// PairCount, CondProb, CooccurringValues, Domain, num_pair_entries), checks
/// each code-addressed lookup (CountOfCode, RunByValue) against its
/// ValueId-keyed one and each count-ordered run (RunByCount) against the
/// recount sorted by count descending, then value ascending. Describes the
/// first difference, or returns "" when they agree.
std::string DiffCooccurrence(const CooccurrenceStats& stats,
                             const CooccurrenceCounts& counts,
                             const std::vector<AttrId>& attrs);

// --- Model ------------------------------------------------------------------

/// Algorithm 3 over a materialized pair list: per constraint, union-find
/// over its violating pairs; components of two or more tuples, sorted, in
/// sorted order.
TupleGroups BuildTupleGroups(size_t num_tuples, size_t num_dcs,
                             const std::vector<Violation>& violations);

/// Algorithm 2 cell by cell, scoring candidates in a hash map per cell.
PrunedDomains PruneDomains(const Table& table,
                           const std::vector<CellRef>& cells,
                           const std::vector<AttrId>& attrs,
                           const CooccurrenceStats& cooc,
                           const DomainPruningOptions& options);

/// Recomputes every kCondProb activation of `graph` as
/// (float)cooc.CondProb(attr, candidate, a_ctx, v_ctx) over the tuple's
/// non-null context cells in `attrs` order, and checks that each candidate
/// carries exactly the contexts with a positive probability. Describes the
/// first difference, or returns "".
std::string DiffCondProbFeatures(const FactorGraph& graph, const Table& table,
                                 const std::vector<AttrId>& attrs,
                                 const CooccurrenceStats& cooc);

// --- Infer ------------------------------------------------------------------

/// Prior bias plus the weighted feature activations, read from the store.
double UnaryScore(const FactorGraph& graph, int var_id, int k,
                  const WeightStore& weights);

/// SGD over `evidence_vars` with one WeightStore lookup per activation;
/// returns the average NLL per epoch.
std::vector<double> TrainSgd(const FactorGraph& graph,
                             const std::vector<int32_t>& evidence_vars,
                             const LearnerOptions& options,
                             WeightStore* weights);

/// Softmax of each query variable's unary scores; evidence point masses.
Marginals ExactIndependentMarginals(const FactorGraph& graph,
                                    const WeightStore& weights);

/// Where Gibbs chains ended, comparable with a GibbsSampler after Run().
struct GibbsEnd {
  /// Candidate index per variable (GibbsSampler::assignment()).
  std::vector<int> assignment;
  /// Per query variable id, its candidate scores at that state
  /// (GibbsSampler::ConditionalScores); empty for evidence variables.
  std::vector<std::vector<double>> conditionals;
};

/// Single-site Gibbs chains per connected component, scoring every DC
/// factor by evaluating its constraint under the candidate overrides at
/// `sim_threshold`. Components run on options.pool when given; each chain
/// is seeded by its component, so the result is thread-count invariant.
/// `end`, when given, receives the chains' final state.
Marginals GibbsMarginals(const FactorGraph& graph, const Table& table,
                         const std::vector<DenialConstraint>& dcs,
                         const WeightStore& weights,
                         const GibbsOptions& options, double sim_threshold,
                         GibbsEnd* end = nullptr);

// --- Whole pipeline ---------------------------------------------------------

/// The compile stage's evidence sample: clean (not `noisy`), non-null cells
/// of `attrs`, capped at config.max_training_cells by a seeded shuffle.
std::vector<CellRef> EvidenceSample(const Table& table,
                                    const std::vector<AttrId>& attrs,
                                    const NoisyCells& noisy,
                                    const HoloCleanConfig& config);

/// The learn stage on the reference path: prior weights from the
/// WeightInitializer, refined by TrainSgd over ctx.graph's evidence.
WeightStore LearnWeights(const PipelineContext& ctx);

/// The infer stage's Gibbs options under ctx.config (on ctx.pool).
GibbsOptions InferGibbsOptions(const PipelineContext& ctx);

/// The infer stage on the reference path over ctx.graph: exact marginals
/// without DC factors, Gibbs chains (on ctx.pool) otherwise, whose final
/// state goes to `end` when given.
Marginals InferMarginals(const PipelineContext& ctx,
                         const WeightStore& weights,
                         GibbsEnd* end = nullptr);

/// The repair stage: MAP candidate per query variable of ctx.graph.
void ExtractRepairs(const PipelineContext& ctx, const Marginals& marginals,
                    std::vector<Repair>* repairs,
                    std::vector<CellPosterior>* posteriors);

/// Recomputes every artifact of a session that ran through repair —
/// violations, noisy cells, statistics, evidence sample, domains, tuple
/// groups, the kCondProb features, weights, marginals (and, under Gibbs,
/// the chains' final states and every query variable's conditional scores
/// there), repairs, and posteriors — on the reference
/// paths, feeding each layer the production artifacts upstream of it, and
/// describes the first difference ("" when every layer is bit-identical).
/// Covers sessions without external dictionaries, extra detectors, or
/// feedback pins.
std::string DiffPipeline(const PipelineContext& ctx);

}  // namespace oracle
}  // namespace holoclean

#endif  // HOLOCLEAN_TESTS_ORACLE_ORACLE_H_
