#include "holoclean/stream/stream_session.h"

#include <utility>

#include "holoclean/util/failpoint.h"
#include "holoclean/util/timer.h"

namespace holoclean {

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
    batch.pipeline_seconds = total_timer.Seconds();
    batch.new_violations = ctx.violations.size() > old_violations
                               ? ctx.violations.size() - old_violations
                               : 0;
    batch.total_seconds = total_timer.Seconds();
    RecordBatch(batch);
    return report;
  }

  // Re-detect the grown table (linear in it) before the commit point, so
  // an injected commit fault can still roll back to the pre-batch state.
  Timer detect_timer;
  DetectArtifacts detected = ctx.Detect();
  batch.detect_seconds = detect_timer.Seconds();

  {
    Status st = HOLO_FAILPOINT("stream.append.commit");
    if (!st.ok()) {
      rollback();
      return st;
    }
  }

  // Commit point: from here on the appended rows stay and the detect
  // artifacts are exactly what a DetectStage over the grown table
  // produces.
  ctx.attrs = ctx.dataset->RepairableAttrs();
  ctx.InstallDetect(std::move(detected));
  batch.new_violations = ctx.violations.size() - old_violations;

  session_->Invalidate(StageId::kCompile);
  Timer pipeline_timer;
  HOLO_ASSIGN_OR_RETURN(report, session_->RunThrough(StageId::kRepair));
  batch.pipeline_seconds = pipeline_timer.Seconds();
  batch.total_seconds = total_timer.Seconds();
  RecordBatch(batch);
  return report;
}

void StreamSession::RecordBatch(StreamBatchStats batch) {
  stats_.appended_rows += batch.rows;
  ++stats_.batches;
  stats_.total_seconds += batch.total_seconds;
  stats_.tuples_per_sec =
      stats_.total_seconds > 0.0
          ? static_cast<double>(stats_.appended_rows) / stats_.total_seconds
          : 0.0;
  stats_.last_batch = batch;
}

}  // namespace holoclean
