// Streaming ingestion: append+clean through StreamSession vs a
// from-scratch re-clean over an append-only Food table. A base session
// absorbs batches of 64 tuples (delta detection, then compile, learn, and
// infer re-run on the grown table); the baseline re-cleans the grown table
// from scratch at every batch boundary. Every batch's repairs must match
// the re-clean's bit for bit: the bench exits nonzero on any difference.
// Reports sustained tuples/sec, the per-batch cost ratio (about 1x, since
// a batch saves only the detect stage), and the repair quality.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/core/evaluation.h"
#include "holoclean/data/food.h"
#include "holoclean/stream/stream_session.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/timer.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

constexpr size_t kBatchRows = 64;
constexpr size_t kBatches = 4;

struct StreamSplit {
  CsvDocument base;
  CsvDocument clean_full;
  std::vector<std::vector<std::string>> tail;
  std::vector<DenialConstraint> dcs;
};

StreamSplit MakeStreamSplit(size_t base_rows, size_t tail_rows,
                            uint64_t seed) {
  FoodOptions options;
  options.num_rows = base_rows + tail_rows;
  options.error_rate = 0.06;
  options.seed = seed;
  GeneratedData data = MakeFood(options);
  StreamSplit split;
  CsvDocument full = data.dataset.dirty().ToCsv();
  split.clean_full = data.dataset.clean().ToCsv();
  split.base.header = full.header;
  for (size_t i = 0; i < full.rows.size(); ++i) {
    if (i < base_rows) {
      split.base.rows.push_back(full.rows[i]);
    } else {
      split.tail.push_back(full.rows[i]);
    }
  }
  split.dcs = std::move(data.dcs);
  return split;
}

/// Builds a dataset of the first `rows` dirty tuples, with aligned ground
/// truth when `with_clean`. The dirty values are interned first either
/// way, so a streamed table (appended without ground truth) and a cold one
/// hold the same value ids.
Dataset PrefixDataset(const StreamSplit& split, size_t rows,
                      bool with_clean) {
  CsvDocument doc;
  doc.header = split.base.header;
  for (size_t i = 0; i < rows; ++i) {
    doc.rows.push_back(i < split.base.rows.size()
                           ? split.base.rows[i]
                           : split.tail[i - split.base.rows.size()]);
  }
  auto table = Table::FromCsv(doc);
  if (!table.ok()) {
    std::fprintf(stderr, "prefix table failed: %s\n",
                 table.status().ToString().c_str());
    std::abort();
  }
  Dataset dataset(std::move(table).value());
  if (with_clean) {
    Table clean(dataset.dirty().schema(), dataset.dirty().dict_ptr());
    for (size_t i = 0; i < rows; ++i) {
      clean.AppendRow(split.clean_full.rows[i]);
    }
    dataset.set_clean(std::move(clean));
  }
  return dataset;
}

}  // namespace

int main() {
  size_t base_rows = static_cast<size_t>(2000 * BenchScale());
  size_t tail_rows = kBatches * kBatchRows;
  std::printf("Streaming ingestion on generated Food: %zu base rows, "
              "%zu batches x %zu appended tuples\n\n",
              base_rows, kBatches, kBatchRows);

  HoloCleanConfig config = PaperConfig("food");
  StreamSplit split = MakeStreamSplit(base_rows, tail_rows, 7701);

  // Stream side: clean the base once (not timed on either side — both
  // worlds pay it), then stream the tail.
  Dataset stream_dataset = PrefixDataset(split, base_rows, false);
  SessionOptions session_options;
  session_options.config = config;
  auto opened = OpenStandaloneSession(
      CleaningInputs::Borrowed(&stream_dataset, &split.dcs), session_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "base session failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Session session = std::move(opened).value();
  Timer timer;
  if (!session.RunThrough(StageId::kRepair).ok()) return 1;
  double base_seconds = timer.Seconds();

  StreamSession stream(&session);

  std::vector<double> incr_seconds(kBatches, 0.0);
  std::vector<double> scratch_seconds(kBatches, 0.0);
  EvalResult scratch_eval;
  size_t diverged_batches = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<std::vector<std::string>> batch(
        split.tail.begin() + static_cast<std::ptrdiff_t>(b * kBatchRows),
        split.tail.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatchRows));
    timer.Reset();
    auto updated = stream.AppendRows(batch);
    incr_seconds[b] = timer.Seconds();
    if (!updated.ok()) {
      std::fprintf(stderr, "append %zu failed: %s\n", b,
                   updated.status().ToString().c_str());
      return 1;
    }

    // Baseline: a cold end-to-end clean of the same grown table.
    Dataset grown =
        PrefixDataset(split, base_rows + (b + 1) * kBatchRows, true);
    timer.Reset();
    auto cold = CleanOnce(CleaningInputs::Borrowed(&grown, &split.dcs),
                          session_options);
    scratch_seconds[b] = timer.Seconds();
    if (!cold.ok()) {
      std::fprintf(stderr, "scratch %zu failed: %s\n", b,
                   cold.status().ToString().c_str());
      return 1;
    }
    if (!SameRepairs(updated.value().repairs, cold.value().repairs)) {
      std::fprintf(stderr,
                   "batch %zu: streamed repairs differ from the cold "
                   "re-clean\n",
                   b + 1);
      ++diverged_batches;
    }
    if (b + 1 == kBatches) {
      scratch_eval = EvaluateRepairs(grown, cold.value().repairs);
    }
  }

  const StreamStats& stats = stream.stats();

  std::vector<int> widths = {7, 10, 10, 10, 9};
  PrintRule(widths);
  PrintRow({"batch", "rows", "incr (s)", "cold (s)", "speedup"}, widths);
  PrintRule(widths);
  double incr_total = 0.0;
  double scratch_total = 0.0;
  for (size_t b = 0; b < kBatches; ++b) {
    incr_total += incr_seconds[b];
    scratch_total += scratch_seconds[b];
    PrintRow({std::to_string(b + 1),
              std::to_string(base_rows + (b + 1) * kBatchRows),
              Fmt(incr_seconds[b]), Fmt(scratch_seconds[b]),
              Fmt(incr_seconds[b] > 0.0
                      ? scratch_seconds[b] / incr_seconds[b]
                      : 0.0,
                  1)},
             widths);
  }
  PrintRule(widths);

  double speedup = incr_total > 0.0 ? scratch_total / incr_total : 0.0;
  double tuples_per_sec =
      incr_total > 0.0 ? static_cast<double>(tail_rows) / incr_total : 0.0;
  std::printf(
      "\nbase clean: %ss; appended %zu tuples in %zu batches\n"
      "incremental total: %ss  from-scratch total: %ss  speedup: %sx\n"
      "sustained ingest: %s tuples/sec\n"
      "quality: f1 %s; repairs %s the from-scratch re-clean\n",
      Fmt(base_seconds).c_str(), stats.appended_rows, stats.batches,
      Fmt(incr_total).c_str(), Fmt(scratch_total).c_str(),
      Fmt(speedup, 1).c_str(), Fmt(tuples_per_sec, 0).c_str(),
      Fmt(scratch_eval.f1).c_str(),
      diverged_batches == 0 ? "match" : "DIFFER FROM");

  AppendBenchMetric("micro_stream", "stream_tuples_per_sec", tuples_per_sec);
  AppendBenchMetric("micro_stream", "stream_speedup_b64", speedup);
  AppendBenchMetric("micro_stream", "stream_incremental_seconds", incr_total);
  AppendBenchMetric("micro_stream", "stream_scratch_seconds", scratch_total);
  AppendBenchMetric("micro_stream", "scratch_f1", scratch_eval.f1);
  if (diverged_batches > 0) {
    std::fprintf(stderr,
                 "error: streamed repairs diverged from the cold re-clean "
                 "in %zu of %zu batches\n",
                 diverged_batches, kBatches);
    return 1;
  }
  return 0;
}
