#ifndef HOLOCLEAN_CORE_PIPELINE_CONTEXT_H_
#define HOLOCLEAN_CORE_PIPELINE_CONTEXT_H_

#include <memory>
#include <utility>
#include <vector>

#include "holoclean/core/config.h"
#include "holoclean/core/report.h"
#include "holoclean/ddlog/program.h"
#include "holoclean/detect/error_detector.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/extdata/matcher.h"
#include "holoclean/extdata/matching_dependency.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/model/grounding.h"
#include "holoclean/model/partitioning.h"
#include "holoclean/model/weight_store.h"
#include "holoclean/storage/dataset.h"
#include "holoclean/util/status.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

struct PipelineContext;

/// A factor-graph section whose materialization was deferred by a lazy
/// (mmap-backed) snapshot restore. The source owns whatever keeps the
/// section bytes readable (typically the file mapping) and knows how to
/// parse, validate, and install them into a context on first access.
class DeferredGraphSource {
 public:
  virtual ~DeferredGraphSource() = default;

  /// Parses and validates the deferred section, then installs the graph
  /// into `ctx->graph`. Validation mirrors the eager loader exactly (same
  /// bounds checks, same marginals-shape check), so a corrupt section
  /// fails with a clean Status here instead of at restore time. On error
  /// the context is untouched; the caller keeps the source so a retry
  /// reports the same error instead of silently running on an empty graph.
  virtual Status Materialize(PipelineContext* ctx) = 0;
};

/// Everything a pipeline run reads and produces, owned in one place so that
/// stages can re-run individually against cached upstream artifacts.
///
/// Two invariants make incremental re-runs sound:
///  - Stages are stateless: every artifact a stage produces lives here,
///    never inside the stage, so a later stage sees exactly what an earlier
///    (possibly cached) execution left behind.
///  - Engine inputs point at context-owned vectors with stable addresses.
///    In particular `query_cells` is an owned copy of the noisy set — the
///    monolithic pipeline wired `GroundingInput::query_cells` to an
///    accessor-returned reference of a stack-local `NoisyCells`, which is
///    exactly the kind of dangling-input hazard this struct removes.
struct PipelineContext {
  // --- Session inputs (borrowed; must outlive the session) ---
  Dataset* dataset = nullptr;
  const std::vector<DenialConstraint>* dcs = nullptr;
  const ExtDictCollection* dicts = nullptr;
  const std::vector<MatchingDependency>* mds = nullptr;
  const DetectorSuite* extra_detectors = nullptr;
  HoloCleanConfig config;
  /// Worker pool for the parallel sections; null = fully sequential.
  /// Owned by the session, never by the context.
  ThreadPool* pool = nullptr;

  // --- DetectStage artifacts ---
  std::vector<AttrId> attrs;
  /// Per constraint: conflict blocks or violating pairs. Snapshots do not
  /// store it; a restore recomputes it from the restored table.
  ViolationSet violations;
  NoisyCells noisy;

  // --- CompileStage artifacts ---
  /// Stable owned copy of the noisy cells: the grounding query variables.
  std::vector<CellRef> query_cells;
  /// Clean, non-null cells sampled for training (capped, seeded shuffle).
  std::vector<CellRef> evidence_cells;
  std::vector<MatchedEntry> matches;
  PrunedDomains domains;
  /// Algorithm-3 tuple groups backing partition-parallel grounding.
  /// Rebuilt by every compile execution (cheap, linear in the violations)
  /// and kept here so the groups that drove grounding stay inspectable.
  TupleGroups groups;
  Program program;
  FactorGraph graph;
  /// Non-null while a lazily restored snapshot's factor-graph section has
  /// not been materialized yet; `graph` is empty until then. Cleared by
  /// EnsureGraph (first consumer touch) and by every compile execution
  /// (which rebuilds the graph from scratch).
  std::shared_ptr<DeferredGraphSource> deferred_graph;
  Grounder::Stats grounder_stats;
  /// Compiled runtime view of `graph` (dense weight ids, CSR arenas,
  /// violation tables), built on demand by EnsureCompiled for the learn and
  /// infer stages. Never serialized: it is a pure function
  /// of the graph, table, and constraints, so restores and compile
  /// executions just drop it and the next learn/infer run rebuilds it.
  std::shared_ptr<const CompiledGraph> compiled;
  /// Number of grounding executions in this session. An incremental re-run
  /// from LearnStage or later reuses the cached graph and leaves this
  /// unchanged (asserted in tests).
  size_t ground_runs = 0;

  // --- LearnStage artifacts ---
  WeightStore weights;

  // --- InferStage artifacts ---
  Marginals marginals{0};

  // --- RepairStage output (stats fields are filled by every stage) ---
  Report report;

  /// A detector over the dataset's current dirty table and the session's
  /// constraints, at the configured sim_threshold, on the pool.
  ViolationDetector Detector() const {
    ViolationDetector::Options options;
    options.sim_threshold = config.sim_threshold;
    options.pool = pool;
    return ViolationDetector(&dataset->dirty(), dcs, options);
  }

  /// Detects over the current dirty table: the constraints' violation set
  /// and noisy cells (ViolationDetector::DetectSet), then any extra
  /// detector's cells. The detect stage, feedback pins, and stream appends
  /// all re-detect the whole table through here — detection is linear in
  /// it — and commit the result with InstallDetect.
  DetectArtifacts Detect() const {
    DetectArtifacts detected = Detector().DetectSet();
    if (extra_detectors != nullptr) {
      detected.noisy.Merge(extra_detectors->Detect(*dataset));
    }
    return detected;
  }

  /// Commits detect artifacts and their report counters.
  void InstallDetect(DetectArtifacts detected) {
    violations = std::move(detected.violations);
    noisy = std::move(detected.noisy);
    const size_t truncated = violations.TruncatedDcs().size();
    report.stats.num_violations = violations.size();
    report.stats.num_noisy_cells = noisy.size();
    report.stats.detect_truncated = truncated > 0;
    report.stats.num_truncated_dcs = truncated;
  }

  /// Materializes the factor graph if a lazy restore deferred it; cheap
  /// no-op otherwise. Every consumer of `graph` (the learn/infer/repair
  /// stages, Session::Save) calls this before touching it. On failure the
  /// deferred source is kept, so retries keep failing with the same error
  /// rather than proceeding against an empty graph.
  Status EnsureGraph() {
    if (deferred_graph == nullptr) return Status::OK();
    HOLO_RETURN_NOT_OK(deferred_graph->Materialize(this));
    deferred_graph.reset();
    return Status::OK();
  }

  /// Materializes the graph (if deferred) and builds the compiled runtime
  /// view if it is not cached yet. Called by the learn/infer stages; a
  /// rerun-from-infer against the cached graph reuses the cached compiled
  /// view too. The build's arena fill and violation-table precompute run on
  /// the session's pool (byte-identical for any pool size; see
  /// CompiledGraph::Build). The violation tables score ≈ predicates at the
  /// configured sim_threshold, like detection and grounding.
  Status EnsureCompiled() {
    HOLO_RETURN_NOT_OK(EnsureGraph());
    if (compiled == nullptr) {
      CompiledGraphOptions copts;
      copts.violation_table_cap = config.dc_table_cap;
      copts.sim_threshold = config.sim_threshold;
      compiled = std::make_shared<const CompiledGraph>(
          CompiledGraph::Build(graph, dataset->dirty(), *dcs, copts, pool));
    }
    return Status::OK();
  }
};

}  // namespace holoclean

#endif  // HOLOCLEAN_CORE_PIPELINE_CONTEXT_H_
