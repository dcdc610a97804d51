#ifndef HOLOCLEAN_CORE_REPORT_H_
#define HOLOCLEAN_CORE_REPORT_H_

#include <string>
#include <vector>

#include "holoclean/storage/table.h"

namespace holoclean {

/// One proposed cell repair with its calibrated marginal probability
/// (paper §2.2: "each repair ... is associated with a marginal probability
/// that carries rigorous semantics").
struct Repair {
  CellRef cell;
  ValueId old_value = 0;
  ValueId new_value = 0;
  double probability = 0.0;
};

/// Posterior summary for every query cell (including unrepaired ones);
/// drives the calibration analysis of §6.3.3.
struct CellPosterior {
  CellRef cell;
  ValueId old_value = 0;
  ValueId map_value = 0;
  double map_prob = 0.0;
};

/// Wall time and memory high-water mark of one pipeline stage in the last
/// run. Recorded uniformly by the session for every stage; `cached` marks
/// stages that were skipped on an incremental re-run because their
/// artifacts were still valid.
struct StageTiming {
  std::string name;
  double seconds = 0.0;
  /// Process peak RSS sampled when the stage finished (bytes; 0 when the
  /// platform cannot report it). The peak is monotone across the run, so
  /// the increase over the previous stage's sample is memory this stage
  /// newly touched.
  size_t peak_rss_bytes = 0;
  bool cached = false;
};

/// Phase timings and model-size statistics of one run (Tables 2/4,
/// Figures 4/5, and the grounding-reduction claims of §1).
struct RunStats {
  /// Legacy phase view of the timings (detect / compile / learn / infer,
  /// with the repair-extraction time folded into infer). Kept in sync with
  /// `stage_timings` by the session.
  double detect_seconds = 0.0;
  double compile_seconds = 0.0;
  double learn_seconds = 0.0;
  double infer_seconds = 0.0;

  /// Per-stage timings in stage order (detect, compile, learn, infer,
  /// repair). Empty for reports not produced by the staged engine.
  std::vector<StageTiming> stage_timings;

  size_t num_violations = 0;
  size_t num_noisy_cells = 0;
  size_t num_query_vars = 0;
  size_t num_evidence_vars = 0;
  size_t num_candidates = 0;
  size_t num_dc_factors = 0;
  size_t num_grounded_factors = 0;

  /// Detection truncation: true when at least one constraint hit the
  /// `max_fallback_pairs` budget and its violation set is incomplete
  /// (detect also logs a warning per truncated constraint).
  bool detect_truncated = false;
  /// How many constraints were truncated.
  size_t num_truncated_dcs = 0;

  double TotalSeconds() const {
    return detect_seconds + compile_seconds + learn_seconds + infer_seconds;
  }
  double RepairSeconds() const { return learn_seconds + infer_seconds; }
};

/// Everything a HoloClean run produces.
struct Report {
  /// Cells whose MAP value differs from the observed value.
  std::vector<Repair> repairs;
  /// Posterior for every query cell.
  std::vector<CellPosterior> posteriors;
  RunStats stats;
  /// The generated DDlog-style program (for inspection / debugging).
  std::string ddlog;

  /// Applies the repairs to a table (typically the dataset's dirty table).
  void Apply(Table* table) const {
    for (const Repair& r : repairs) table->Set(r.cell, r.new_value);
  }
};

}  // namespace holoclean

#endif  // HOLOCLEAN_CORE_REPORT_H_
