#ifndef HOLOCLEAN_BENCH_COMMON_H_
#define HOLOCLEAN_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "holoclean/core/config.h"
#include "holoclean/core/engine.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/data/generated_data.h"

namespace holoclean::bench {

/// Scale knob for all benches: HOLOCLEAN_BENCH_SCALE environment variable
/// multiplies the default row counts (1.0 when unset). Use e.g. 85 for
/// Food to approach the paper's full 339,908 rows.
double BenchScale();

/// Builds one of the four paper datasets by name ("hospital", "flights",
/// "food", "physicians") at the bench scale.
GeneratedData MakeDataset(const std::string& name);

/// The paper's per-dataset pruning thresholds (Table 3): hospital .5,
/// flights .3, food .5, physicians .7.
double PaperTau(const std::string& name);

/// Default HoloClean configuration for a dataset (paper Table 3 setup:
/// DC features, no partitioning, per-dataset tau).
HoloCleanConfig PaperConfig(const std::string& name);

/// Runs the full cleaning pipeline once (CleanOnce over a borrowed
/// bundle) and returns (evaluation, report).
struct RunOutcome {
  EvalResult eval;
  RunStats stats;
  std::vector<Repair> repairs;
};
RunOutcome RunPipeline(GeneratedData* data, const HoloCleanConfig& config,
                       bool use_dicts);

/// True when both repair lists hold the same cells, old and new values, and
/// bit-identical probabilities, in the same order.
bool SameRepairs(const std::vector<Repair>& a, const std::vector<Repair>& b);

/// Prints a markdown-style table row.
void PrintRule(const std::vector<int>& widths);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// Formats a double with fixed precision.
std::string Fmt(double v, int precision = 3);

/// Path of the JSON-lines metrics file named by the HOLOCLEAN_BENCH_JSON
/// environment variable, or empty when unset. CI points every bench at one
/// file and aggregates the records into BENCH_ci.json per PR, so the perf
/// trajectory (sizes, wall times, peak memory) is tracked as an artifact.
std::string BenchJsonPath();

/// Appends one {"bench":...,"metric":...,"value":...} record to the
/// metrics file. No-op when HOLOCLEAN_BENCH_JSON is unset.
void AppendBenchMetric(const std::string& bench, const std::string& metric,
                       double value);

const std::vector<std::string>& AllDatasetNames();

}  // namespace holoclean::bench

#endif  // HOLOCLEAN_BENCH_COMMON_H_
