#include "holoclean/stream/stream_session.h"

#include <utility>

#include "holoclean/detect/violation_detector.h"
#include "holoclean/infer/learner.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/grounding.h"
#include "holoclean/model/weight_initializer.h"
#include "holoclean/util/failpoint.h"
#include "holoclean/util/timer.h"

namespace holoclean {

StreamSession::StreamSession(Session* session, StreamOptions options)
    : session_(session), options_(options) {
  base_rows_ = session_->context().dataset->dirty().num_rows();
}

Result<Report> StreamSession::AppendRows(
    const std::vector<std::vector<std::string>>& rows,
    const std::vector<std::vector<std::string>>* clean_rows) {
  PipelineContext& ctx = session_->context();
  Table& dirty = ctx.dataset->dirty();
  const size_t arity = dirty.schema().num_attrs();
  for (const auto& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument("append row arity mismatch");
    }
  }
  if (clean_rows != nullptr) {
    if (!ctx.dataset->has_clean()) {
      return Status::InvalidArgument(
          "clean rows passed but the dataset has no clean table");
    }
    if (clean_rows->size() != rows.size()) {
      return Status::InvalidArgument("clean/dirty append size mismatch");
    }
    for (const auto& row : *clean_rows) {
      if (row.size() != arity) {
        return Status::InvalidArgument("append clean row arity mismatch");
      }
    }
  }
  if (rows.empty()) return session_->Run();

  Timer total_timer;
  StreamBatchStats batch;
  batch.rows = rows.size();

  // Nothing is mutated yet: an injected intern fault needs no rollback.
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("stream.append.intern"));

  const size_t old_rows = dirty.num_rows();
  const size_t old_violations = ctx.violations.size();
  for (const auto& row : rows) dirty.AppendRow(row);
  const bool clean_appended = ctx.dataset->has_clean();
  if (clean_appended) {
    Table& clean = ctx.dataset->clean();
    for (size_t i = 0; i < rows.size(); ++i) {
      clean.AppendRow(clean_rows != nullptr ? (*clean_rows)[i] : rows[i]);
    }
  }
  auto rollback = [&]() {
    dirty.Truncate(old_rows);
    if (clean_appended) ctx.dataset->clean().Truncate(old_rows);
  };

  {
    Status st = HOLO_FAILPOINT("stream.append.detect");
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  // A session that never detected (or was invalidated back past detect)
  // has no cached artifacts to extend: fall back to a full run. The rows
  // stay appended even on error — the session is simply still invalid
  // from detect, exactly as before the batch.
  if (!session_->StageIsValid(StageId::kDetect)) {
    session_->Invalidate(StageId::kDetect);
    HOLO_ASSIGN_OR_RETURN(report, session_->Run());
    batch.full_run = true;
    batch.resync = true;
    base_rows_ = dirty.num_rows();
    stats_.appended_since_resync = 0;
    batch.pipeline_seconds = total_timer.Seconds();
    batch.new_violations = ctx.violations.size() > old_violations
                               ? ctx.violations.size() - old_violations
                               : 0;
    batch.total_seconds = total_timer.Seconds();
    stats_.appended_rows += rows.size();
    ++stats_.batches;
    stats_.total_seconds += batch.total_seconds;
    stats_.tuples_per_sec =
        stats_.total_seconds > 0.0
            ? static_cast<double>(stats_.appended_rows) / stats_.total_seconds
            : 0.0;
    stats_.last_batch = batch;
    return report;
  }

  // Exact delta detection over the blocks the new tuples touch, merged
  // over a copy of the cached violations so an injected commit fault can
  // still roll back to the pre-batch state.
  Timer detect_timer;
  ViolationDetector::Options dopt;
  dopt.sim_threshold = ctx.config.sim_threshold;
  dopt.pool = ctx.pool;
  ViolationDetector detector(&dirty, ctx.dcs, dopt);
  DeltaDetectResult delta = detector.DetectAppended(old_rows);
  DetectResult merged = ViolationDetector::MergeAppendDelta(
      ctx.violations, ctx.dcs->size(), std::move(delta));
  batch.detect_seconds = detect_timer.Seconds();

  {
    Status st = HOLO_FAILPOINT("stream.append.commit");
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  // Commit point: from here on the appended rows stay and the detect
  // artifacts are exactly what a full DetectStage over the grown table
  // would produce.
  ctx.attrs = ctx.dataset->RepairableAttrs();
  ctx.violations = std::move(merged.violations);
  ctx.noisy = ViolationDetector::NoisyFromViolations(ctx.violations);
  if (ctx.extra_detectors != nullptr) {
    ctx.noisy.Merge(ctx.extra_detectors->Detect(*ctx.dataset));
  }
  ctx.report.stats.num_violations = ctx.violations.size();
  ctx.report.stats.num_noisy_cells = ctx.noisy.size();
  ctx.report.stats.detect_truncated = !merged.truncated_dcs.empty();
  ctx.report.stats.num_truncated_dcs = merged.truncated_dcs.size();
  batch.new_violations = ctx.violations.size() - old_violations;

  // DC-factor models re-ground pairwise factors over the whole table —
  // there is no incremental path for them, so they resync every batch.
  const bool dc_factors = ctx.config.dc_mode != DcMode::kFeatures;
  const bool stale =
      options_.compact_threshold <= 0.0 || base_rows_ == 0 ||
      static_cast<double>(stats_.appended_since_resync + rows.size()) >=
          options_.compact_threshold * static_cast<double>(base_rows_);
  bool resync = options_.mode == StreamMode::kExact || dc_factors || stale;

  if (!resync) {
    Timer ground_timer;
    Status warm = WarmAppend(old_rows, &batch);
    batch.ground_seconds = ground_timer.Seconds();
    if (warm.ok()) {
      session_->Invalidate(StageId::kInfer);
    } else {
      // Degrade, never corrupt: the full re-compile rebuilds everything
      // the failed incremental step may have half-written.
      resync = true;
    }
  }
  if (resync) {
    session_->Invalidate(StageId::kCompile);
  }

  Timer pipeline_timer;
  HOLO_ASSIGN_OR_RETURN(report, session_->RunThrough(StageId::kRepair));
  batch.pipeline_seconds = pipeline_timer.Seconds();

  batch.resync = resync;
  if (resync) {
    base_rows_ = dirty.num_rows();
    stats_.appended_since_resync = 0;
    // Warm-mode resyncs — threshold-triggered, factor-mode, or the
    // degrade-on-error path — are compactions; exact mode recompiles by
    // design and counts none.
    if (options_.mode == StreamMode::kWarm) ++stats_.compactions;
  } else {
    stats_.appended_since_resync += rows.size();
  }
  batch.total_seconds = total_timer.Seconds();
  stats_.appended_rows += rows.size();
  ++stats_.batches;
  stats_.total_seconds += batch.total_seconds;
  stats_.tuples_per_sec =
      stats_.total_seconds > 0.0
          ? static_cast<double>(stats_.appended_rows) / stats_.total_seconds
          : 0.0;
  stats_.last_batch = batch;
  return report;
}

Status StreamSession::WarmAppend(size_t old_rows, StreamBatchStats* batch) {
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("stream.append.ground"));
  PipelineContext& ctx = session_->context();
  // A lazily restored graph must be in place before it is extended.
  HOLO_RETURN_NOT_OK(ctx.EnsureGraph());
  Table& dirty = ctx.dataset->dirty();
  const HoloCleanConfig& config = ctx.config;

  // Statistics first: the batch's domains must be pruned against the
  // grown-table co-occurrence counts (exactly what a full re-compile
  // would see). A restored session has none yet: count the grown table.
  if (ctx.cooc.empty()) {
    ctx.cooc = CooccurrenceStats::BuildColumnar(dirty, ctx.attrs, ctx.pool);
  } else {
    ctx.cooc.AppendRows(dirty, ctx.attrs, old_rows);
  }

  // New query cells: noisy cells with no variable yet (the batch's own
  // noisy cells, plus old cells the batch newly implicates) and evidence
  // cells the batch flipped noisy. A flip re-adds the cell as a query
  // variable; the superseded evidence variable keeps training toward its
  // observed value until the next resync drops it (bounded divergence).
  std::vector<CellRef> query_delta;
  for (const CellRef& cell : ctx.noisy.cells()) {
    int var = ctx.graph.VarOfCell(cell);
    if (var < 0 || ctx.graph.variable(var).is_evidence) {
      query_delta.push_back(cell);
    }
  }

  // New evidence: the batch's clean non-null cells, honoring the global
  // training-cell cap.
  std::vector<CellRef> evidence_delta;
  for (size_t t = old_rows; t < dirty.num_rows(); ++t) {
    if (ctx.evidence_cells.size() + evidence_delta.size() >=
        config.max_training_cells) {
      break;
    }
    for (AttrId a : ctx.attrs) {
      CellRef c{static_cast<TupleId>(t), a};
      if (ctx.noisy.Contains(c)) continue;
      if (dirty.Get(c) == Dictionary::kNull) continue;
      evidence_delta.push_back(c);
    }
  }

  // Per-cell domain pruning is independent across cells, so pruning only
  // the delta cells is exact; flipped cells get their (query-sized)
  // domains recomputed and overwrite the stale evidence-era entry.
  DomainPruningOptions popt;
  popt.tau = config.tau;
  popt.max_candidates = config.max_candidates;
  std::vector<CellRef> delta_cells = query_delta;
  delta_cells.insert(delta_cells.end(), evidence_delta.begin(),
                     evidence_delta.end());
  PrunedDomains pruned = PruneDomainsColumnar(dirty, delta_cells, ctx.attrs,
                                              ctx.cooc, popt, ctx.pool);
  for (auto& entry : pruned.candidates) {
    ctx.domains.candidates[entry.first] = std::move(entry.second);
  }
  ctx.report.stats.num_candidates = ctx.domains.TotalCandidates();

  GroundingInput input;
  input.table = &dirty;
  input.dcs = ctx.dcs;
  input.attrs = &ctx.attrs;
  input.cooc = &ctx.cooc;
  input.query_cells = &query_delta;
  input.evidence_cells = &evidence_delta;
  input.domains = &ctx.domains;
  input.matches = ctx.matches.empty() ? nullptr : &ctx.matches;
  input.violations = &ctx.violations;
  input.source_attr = ctx.dataset->source_attr();
  GroundingOptions gopt = config.ToGroundingOptions();
  gopt.pool = ctx.pool;
  Grounder grounder(input, gopt);

  const size_t first_var = ctx.graph.num_variables();
  HOLO_RETURN_NOT_OK(grounder.GroundAppend(&ctx.graph, query_delta,
                                           evidence_delta));
  ctx.grounder_stats.num_query_vars += grounder.stats().num_query_vars;
  ctx.grounder_stats.num_evidence_vars += grounder.stats().num_evidence_vars;
  ctx.grounder_stats.num_feature_instances +=
      grounder.stats().num_feature_instances;
  ctx.report.stats.num_query_vars = ctx.graph.query_vars().size();
  ctx.report.stats.num_evidence_vars = ctx.graph.evidence_vars().size();
  ctx.report.stats.num_grounded_factors = ctx.graph.NumGroundedFactors();
  ctx.query_cells.insert(ctx.query_cells.end(), query_delta.begin(),
                         query_delta.end());
  ctx.evidence_cells.insert(ctx.evidence_cells.end(), evidence_delta.begin(),
                            evidence_delta.end());
  batch->new_query_vars = grounder.stats().num_query_vars;
  batch->new_evidence_vars = grounder.stats().num_evidence_vars;

  // Extend the compiled arenas in place (the append-only CSR tail). The
  // const view is only shared within this session; EnsureCompiled builds
  // it mutable. A session without one (e.g. just restored from a
  // snapshot) compiles the grown graph whole.
  if (ctx.compiled != nullptr) {
    std::const_pointer_cast<CompiledGraph>(ctx.compiled)
        ->AppendVariables(ctx.graph, first_var);
  } else {
    HOLO_RETURN_NOT_OK(ctx.EnsureCompiled());
  }

  // Warm-start weights: keys the batch introduced (new values, new
  // sources) get their prior seed; every existing weight keeps its
  // learned value.
  WeightInitInput winput;
  winput.table = &dirty;
  winput.attrs = &ctx.attrs;
  winput.dcs = ctx.dcs;
  winput.num_dicts = ctx.dicts == nullptr ? 0 : ctx.dicts->size();
  winput.source_attr =
      ctx.dataset->has_source_attr() ? ctx.dataset->source_attr() : -1;
  WeightInitializer initializer(config.ToWeightInitOptions());
  WeightStore seeded = initializer.Initialize(winput);
  for (const auto& entry : seeded.raw()) {
    if (ctx.weights.raw().count(entry.first) == 0) {
      ctx.weights.Set(entry.first, entry.second);
    }
  }

  // A few SGD epochs over the batch's evidence refine the weights toward
  // the new data without forgetting the old (per-batch seed keeps the
  // whole append sequence deterministic).
  if (options_.warm_epochs > 0) {
    std::vector<int32_t> new_evidence_vars;
    for (size_t v = first_var; v < ctx.graph.num_variables(); ++v) {
      if (ctx.graph.variable(static_cast<int>(v)).is_evidence) {
        new_evidence_vars.push_back(static_cast<int32_t>(v));
      }
    }
    if (!new_evidence_vars.empty()) {
      LearnerOptions lopt;
      lopt.epochs = options_.warm_epochs;
      lopt.learning_rate = config.learning_rate;
      lopt.lr_decay = config.lr_decay;
      lopt.l2 = config.l2;
      lopt.seed = config.seed ^ 0x5851F42D4C957F2DULL ^
                  (stats_.batches + 1);
      SgdLearner(lopt).TrainOn(*ctx.compiled, new_evidence_vars,
                               &ctx.weights);
    }
  }
  return Status::OK();
}

Result<Report> StreamSession::Resync() {
  session_->Invalidate(StageId::kCompile);
  HOLO_ASSIGN_OR_RETURN(report, session_->RunThrough(StageId::kRepair));
  base_rows_ = session_->context().dataset->dirty().num_rows();
  stats_.appended_since_resync = 0;
  ++stats_.compactions;
  return report;
}

}  // namespace holoclean
