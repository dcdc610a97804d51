#ifndef HOLOCLEAN_CORE_SESSION_H_
#define HOLOCLEAN_CORE_SESSION_H_

#include <memory>
#include <vector>

#include "holoclean/core/inputs.h"
#include "holoclean/core/pipeline_context.h"
#include "holoclean/core/stage.h"
#include "holoclean/io/session_snapshot.h"

namespace holoclean {

/// A long-lived handle over one cleaning instance (obtained with
/// Engine::OpenSession or OpenStandaloneSession) that supports
/// incremental re-runs: the session caches every stage artifact in its
/// PipelineContext and tracks which leading stages are still valid. Run()
/// only executes the invalid suffix, so e.g. changing a Gibbs knob re-runs
/// inference and repair extraction against the cached factor graph without
/// re-detecting or re-grounding anything.
///
/// Invalidation sources:
///  - Invalidate(stage): explicit, everything from `stage` on re-executes.
///  - UpdateConfig(config): diffs the configs and invalidates the earliest
///    stage any changed knob feeds into (e.g. tau -> compile, epochs ->
///    learn, gibbs_samples -> infer). Changing num_threads rebuilds the
///    private worker pool but invalidates nothing: results are
///    thread-count invariant.
///  - PinCell(cell, value): writes a user-verified value into the dirty
///    table (the feedback loop of paper §2.2). When detection is cached,
///    the whole table is re-detected (PipelineContext::Detect; linear in
///    the table), so cells flagged noisy only by the old value drop out
///    and conflicts the verified value newly exposes are detected. The
///    verified cell itself is then removed from the noisy set (it is
///    ground truth) and compile and later stages re-run.
///
/// The session holds its CleaningInputs bundle: owned inputs stay alive
/// for the session's lifetime, borrowed ones must outlive it. It mutates
/// the dataset's dictionary (interning matched candidate values) and —
/// only via PinCell — cell values.
///
/// Worker pool: a session either runs on a shared, externally owned pool
/// (Engine sessions — the pool is shared by every concurrent session and
/// batch job) or owns a private pool sized by config.num_threads (the
/// legacy facade behavior). Results are bit-identical either way.
class Session {
 public:
  /// Opens a staged session over an input bundle. `shared_pool` non-null
  /// wires the session onto that (engine-owned) pool; null gives the
  /// session a private pool per config.num_threads.
  Session(HoloCleanConfig config, CleaningInputs inputs,
          std::shared_ptr<ThreadPool> shared_pool = nullptr);

  /// Legacy borrowed-pointer constructor (the facade's calling
  /// convention); equivalent to the bundle constructor with
  /// CleaningInputs::Borrowed and a private pool.
  Session(HoloCleanConfig config, Dataset* dataset,
          const std::vector<DenialConstraint>* dcs,
          const ExtDictCollection* dicts,
          const std::vector<MatchingDependency>* mds,
          const DetectorSuite* extra_detectors);

  /// Moves keep the context's pool pointer wired to the pool the
  /// destination now owns (or shares) and leave the source inert: a
  /// moved-from session holds no input pointers and no pool reference, so
  /// destroying — or accidentally reusing — it can never touch resources
  /// that migrated to the destination. Move-assignment first destroys the
  /// destination's old private pool; any helper tasks a finished parallel
  /// section left in a pool queue hold only self-contained heap state (see
  /// TaskGroup), so the teardown is safe even right after a run.
  Session(Session&& other);
  Session& operator=(Session&& other);

  /// Executes all invalid stages through repair extraction and returns the
  /// report. When every stage is valid this is a cached-report lookup.
  Result<Report> Run() { return RunThrough(StageId::kRepair); }

  /// Executes invalid stages up to and including `last` (prefix execution:
  /// e.g. RunThrough(kCompile) grounds the model without learning). The
  /// returned report carries the stats of the stages run so far.
  Result<Report> RunThrough(StageId last);

  /// Marks `from` and every later stage as needing re-execution.
  void Invalidate(StageId from);

  /// True when the stage's cached artifacts are valid.
  bool StageIsValid(StageId id) const {
    return static_cast<int>(id) < valid_through_;
  }

  /// Adopts a new configuration, invalidating the minimal stage suffix the
  /// changed knobs feed into (see class comment).
  void UpdateConfig(const HoloCleanConfig& config);

  /// Applies a user-verified value (feedback loop): writes it to the dirty
  /// table and invalidates from compile (detection cached) or detect.
  void PinCell(const CellRef& cell, ValueId value);

  /// Serializes the cached stage artifacts (everything the valid stage
  /// prefix produced, plus the dirty table's current cell values and
  /// dictionary) into a versioned, checksummed SessionSnapshot at `path`.
  /// A later process restores it with Engine::OpenSession or
  /// OpenStandaloneSession (snapshot_path) and re-runs from any cached
  /// stage exactly like an in-process rerun. `options` select the section
  /// codec (packed by default). A lazily restored session materializes its
  /// factor graph first.
  Status Save(const std::string& path, const SnapshotSaveOptions& options = {});

  /// Loads a snapshot saved by Save() into this session, replacing every
  /// cached artifact and setting the valid stage prefix to what the
  /// snapshot carries. The session must have been opened over the same
  /// dataset, constraints, and config fingerprint the snapshot was saved
  /// with; on any validation or parse error the session is left invalid
  /// from detect (as if freshly opened) and the error is returned.
  /// With options.lazy_graph the snapshot is mapped instead of read and
  /// the factor-graph section stays on disk until the first stage that
  /// needs it runs (see SnapshotLoadOptions for the corruption-reporting
  /// trade-off).
  Status RestoreFrom(const std::string& path,
                     const SnapshotLoadOptions& options = {});

  PipelineContext& context() { return ctx_; }
  const PipelineContext& context() const { return ctx_; }

  /// The report of the last (possibly partial) run.
  const Report& report() const { return ctx_.report; }

  /// The learned weights (valid once the learn stage ran or was restored).
  const WeightStore& weights() const { return ctx_.weights; }

  const HoloCleanConfig& config() const { return ctx_.config; }

  /// The input bundle the session runs over.
  const CleaningInputs& inputs() const { return inputs_; }

  /// True when the session runs on a shared (engine-owned) pool rather
  /// than a private one.
  bool uses_shared_pool() const { return shared_pool_ != nullptr; }

 private:
  void RebuildPool();

  CleaningInputs inputs_;
  /// Engine-owned pool, shared with other sessions; null when the session
  /// owns `pool_` instead.
  std::shared_ptr<ThreadPool> shared_pool_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<PipelineStage>> stages_;
  PipelineContext ctx_;
  /// Stages [0, valid_through_) have valid cached artifacts.
  int valid_through_ = 0;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_CORE_SESSION_H_
