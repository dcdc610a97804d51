// Wall time of the detect+compile scans — violation detection, the
// co-occurrence statistics, and domain pruning — on the production paths
// (the pipeline's ViolationDetector::DetectSet, which keeps FD-shaped
// constraints as conflict blocks, and the columnar scans) vs the
// row-at-a-time references in tests/oracle/ (a materialized pair list), on
// generated Food at three sizes. Both sides scan identical data, so the
// bench doubles as a cross-check: the noisy cells in order, the
// per-constraint violation counts, the tuple groups, and the truncated
// constraints must equal what the pair list implies, and the statistics
// and candidate domains must be identical; any difference exits 1. CI
// pins the production-vs-row speedup at the largest size against the
// committed BENCH_ci.json ratio. The production side takes a fraction of a
// second at CI's scale, so it is timed as the fastest of kProductionReps
// repetitions, which keeps the ratio's small denominator steady; the row
// side runs once.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/data/food.h"
#include "holoclean/util/timer.h"
#include "oracle/oracle.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

constexpr int kProductionReps = 5;

struct ScanRun {
  double detect = 0.0;
  double compile = 0.0;  ///< Statistics + domain pruning.
  PrunedDomains domains;
};

}  // namespace

int main() {
  const std::vector<std::pair<std::string, size_t>> sizes = {
      {"4k", 4000}, {"40k", 40000}, {"100k", 100000}};
  std::printf("Detect+compile scans (detection, statistics, pruning): "
              "production vs row reference (generated Food)\n\n");

  std::vector<int> widths = {6, 9, 13, 13, 13, 13, 12, 9};
  PrintRule(widths);
  PrintRow({"size", "rows", "det col (s)", "det row (s)", "cmp col (s)",
            "cmp row (s)", "rows/s col", "speedup"},
           widths);
  PrintRule(widths);

  HoloCleanConfig config;
  config.tau = 0.5;
  DomainPruningOptions prune;
  prune.tau = config.tau;
  prune.max_candidates = config.max_candidates;
  // The production side runs on a pool sized like a default session's.
  ThreadPool pool(config.num_threads);

  double largest_speedup = 0.0;
  for (const auto& [label, nominal] : sizes) {
    size_t rows = static_cast<size_t>(static_cast<double>(nominal) *
                                      BenchScale());
    if (rows == 0) rows = 1;
    GeneratedData data = MakeFood({rows, 0.06, 7});
    const Table& table = data.dataset.dirty();
    const std::vector<AttrId> attrs = data.dataset.RepairableAttrs();

    ViolationDetector::Options options;
    options.sim_threshold = config.sim_threshold;
    options.pool = &pool;
    // Every repetition computes the same artifacts; the last one's are
    // cross-checked, and the fastest repetition's times are reported.
    ScanRun col;
    DetectArtifacts detected;
    CooccurrenceStats cooc;
    std::vector<CellRef> cells;
    for (int rep = 0; rep < kProductionReps; ++rep) {
      ScanRun run;
      Timer timer;
      DetectArtifacts run_detected =
          ViolationDetector(&table, &data.dcs, options).DetectSet();
      run.detect = timer.Seconds();
      // The compile stage's pruning input: the noisy cells plus its
      // evidence sample.
      std::vector<CellRef> run_cells = run_detected.noisy.cells();
      std::vector<CellRef> evidence =
          oracle::EvidenceSample(table, attrs, run_detected.noisy, config);
      run_cells.insert(run_cells.end(), evidence.begin(), evidence.end());
      timer.Reset();
      CooccurrenceStats run_cooc =
          CooccurrenceStats::BuildColumnar(table, attrs, &pool);
      run.domains = PruneDomainsColumnar(table, run_cells, attrs, run_cooc,
                                         prune, &pool);
      run.compile = timer.Seconds();
      if (rep == 0 || run.detect + run.compile < col.detect + col.compile) {
        col.detect = run.detect;
        col.compile = run.compile;
      }
      // Freed outside the timed sections.
      detected = std::move(run_detected);
      cells = std::move(run_cells);
      cooc = std::move(run_cooc);
      col.domains = std::move(run.domains);
    }

    ScanRun row;
    Timer timer;
    DetectResult pairs =
        oracle::DetectViolations(table, data.dcs, config.sim_threshold);
    NoisyCells row_noisy;
    for (const Violation& v : pairs.violations) {
      for (const CellRef& c : v.cells) row_noisy.Add(c);
    }
    row.detect = timer.Seconds();
    timer.Reset();
    oracle::CooccurrenceCounts recount =
        oracle::CountCooccurrence(table, attrs);
    row.domains = oracle::PruneDomains(table, cells, attrs, cooc, prune);
    row.compile = timer.Seconds();

    // Noisy cells in order, per-constraint counts, tuple groups, and
    // truncation against the pair list; then statistics and domains.
    std::string diff = oracle::DiffViolationSet(
        detected.violations, detected.noisy, pairs, table.num_rows());
    if (diff.empty()) {
      diff = oracle::DiffCooccurrence(cooc, recount, attrs);
      if (!diff.empty()) diff = "statistics: " + diff;
    }
    if (diff.empty() && !(col.domains.candidates == row.domains.candidates)) {
      diff = "candidate domains differ";
    }
    if (!diff.empty()) {
      std::fprintf(stderr,
                   "production/row results diverge at %s (violations %zu vs "
                   "%zu, noisy %zu vs %zu, candidates %zu vs %zu): %s\n",
                   label.c_str(), detected.violations.size(),
                   pairs.violations.size(), detected.noisy.size(),
                   row_noisy.size(), col.domains.TotalCandidates(),
                   row.domains.TotalCandidates(), diff.c_str());
      return 1;
    }
    const double col_total = col.detect + col.compile;
    const double row_total = row.detect + row.compile;
    double speedup = col_total > 0.0 ? row_total / col_total : 0.0;
    double rows_per_sec =
        col_total > 0.0 ? static_cast<double>(rows) / col_total : 0.0;
    PrintRow({label, std::to_string(rows), Fmt(col.detect), Fmt(row.detect),
              Fmt(col.compile), Fmt(row.compile), Fmt(rows_per_sec, 0),
              Fmt(speedup, 2) + "x"},
             widths);
    AppendBenchMetric("micro_detect",
                      "detect_compile_seconds_columnar_" + label, col_total);
    AppendBenchMetric("micro_detect", "detect_compile_seconds_row_" + label,
                      row_total);
    AppendBenchMetric("micro_detect", "rows_per_sec_columnar_" + label,
                      rows_per_sec);
    largest_speedup = speedup;
  }
  PrintRule(widths);
  std::printf("(noisy cells, violation counts, tuple groups, truncation, "
              "statistics, and candidate domains identical across paths at "
              "every size)\n");
  AppendBenchMetric("micro_detect", "speedup_100k", largest_speedup);
  return 0;
}
