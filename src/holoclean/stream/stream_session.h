#ifndef HOLOCLEAN_STREAM_STREAM_SESSION_H_
#define HOLOCLEAN_STREAM_STREAM_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "holoclean/core/session.h"

namespace holoclean {

/// The one way AppendRows keeps the model in sync with the growing table:
/// every batch re-detects the grown table and re-compiles the model, so
/// violations, domains, and repairs are bit-identical to cleaning the
/// final table from scratch. The enum stays only because
/// holobench's serve_write replay (bench/e2e/serve.cc) sets it, until a
/// benchmark change can drop it.
enum class StreamMode {
  kExact,
};

/// Has no setting of its own: `mode` has one value. Stays only for the
/// holobench caller named at StreamMode, until a benchmark change can drop
/// it.
struct StreamOptions {
  StreamMode mode = StreamMode::kExact;
};

/// Per-batch accounting.
struct StreamBatchStats {
  size_t rows = 0;
  /// Violations the batch added.
  size_t new_violations = 0;
  /// The session had never run: the batch fell back to a full Run().
  bool full_run = false;
  /// Re-detection of the grown table. Only holobench's serve_write replay
  /// reads it; it stays until a benchmark change can drop it.
  double detect_seconds = 0.0;
  double pipeline_seconds = 0.0; ///< The staged re-run.
  /// Wall time of the whole AppendRows call. holobench's serve_write
  /// replay reads it too, so renaming it needs a benchmark change.
  double total_seconds = 0.0;
};

/// Cumulative streaming stats (explain_status's `stream` object).
struct StreamStats {
  size_t appended_rows = 0;
  size_t batches = 0;
  double total_seconds = 0.0;
  /// appended_rows / total wall time spent in AppendRows.
  double tuples_per_sec = 0.0;
  /// The latest batch. holobench's serve_write replay reads it too, so
  /// renaming it needs a benchmark change.
  StreamBatchStats last_batch;
};

/// Streaming ingestion over a Session: appends batches of rows to the
/// dirty table and re-cleans. Detection re-runs over the whole grown table
/// (it is linear in the table, about 1% of a clean), then compile, learn,
/// and infer re-run on it, so a batch costs about as much as a cold clean
/// of the grown table.
///
/// Error handling: a failure before the batch commits rolls the table
/// back (Table::Truncate) and leaves the session exactly as it was. A
/// failure after the commit point leaves the appended rows in place with
/// the suffix stages invalidated — the next Run()/AppendRows heals by
/// re-executing them. Failpoint sites: stream.append.intern,
/// stream.append.detect, stream.append.commit.
///
/// The session must outlive the StreamSession. Appends mutate the
/// session's dataset; when the dataset carries a clean (ground-truth)
/// table, pass the matching clean rows so TrueErrors stays aligned — with
/// none provided the dirty values are mirrored (the new rows evaluate as
/// error-free).
class StreamSession {
 public:
  /// The options select nothing; the parameter stays only for holobench's
  /// serve_write replay, which passes it.
  explicit StreamSession(Session* session, StreamOptions /*options*/ = {})
      : session_(session) {}

  /// Appends `rows` (raw string values, schema arity each) and re-cleans.
  /// Returns the updated report: repairs cover the whole table, not just
  /// the batch. An empty batch just runs any invalid stage suffix.
  Result<Report> AppendRows(
      const std::vector<std::vector<std::string>>& rows,
      const std::vector<std::vector<std::string>>* clean_rows = nullptr);

  const StreamStats& stats() const { return stats_; }
  Session* session() { return session_; }

 private:
  /// Folds a finished batch into the cumulative stats.
  void RecordBatch(StreamBatchStats batch);

  Session* session_;
  StreamStats stats_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_STREAM_STREAM_SESSION_H_
