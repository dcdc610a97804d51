// Session persistence: bytes on disk and save/restore/resume wall times
// across the snapshot variants — the v2 sectioned format with raw and
// packed codecs, and v2 packed restored via mmap with the factor-graph
// section deferred to first stage access. A session saved
// after learning carries the grounded factor graph and trained weights, so
// a restored process pays only inference + repair extraction; the packed
// codec shrinks the bytes that buy that shortcut and the mmap path defers
// the biggest section until a stage actually touches it.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/data/food.h"
#include "holoclean/util/timer.h"

using namespace holoclean;         // NOLINT
using namespace holoclean::bench;  // NOLINT

namespace {

constexpr char kSnapshotPath[] = "/tmp/holoclean_micro_persist.snapshot";

HoloCleanConfig PersistConfig() {
  HoloCleanConfig config;
  config.tau = 0.5;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 10;
  config.gibbs_samples = 40;
  return config;
}

size_t FileSize(const char* path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

struct Variant {
  const char* name;
  SnapshotSaveOptions save;
  bool mmap_restore = false;
};

struct VariantResult {
  double save_seconds = 0.0;
  size_t bytes = 0;
  double restore_seconds = 0.0;
  double resume_seconds = 0.0;
  bool identical = false;
};

}  // namespace

int main() {
  size_t rows = static_cast<size_t>(4000 * BenchScale());
  std::printf("Session persistence on generated Food (%zu rows), "
              "DC factors + partitioning\n\n", rows);
  HoloCleanConfig config = PersistConfig();

  // Cold run: the baseline every restore competes against.
  GeneratedData cold_data = MakeFood({rows, 0.06, 7});
  Timer timer;
  auto cold_report = CleanOnce(
      CleaningInputs::Borrowed(&cold_data.dataset, &cold_data.dcs), {config});
  if (!cold_report.ok()) {
    std::fprintf(stderr, "cold run failed: %s\n",
                 cold_report.status().ToString().c_str());
    return 1;
  }
  double cold_seconds = timer.Seconds();
  const std::vector<Repair>& reference = cold_report.value().repairs;

  // One session, saved after learn under each variant's options.
  GeneratedData save_data = MakeFood({rows, 0.06, 7});
  auto opened = OpenStandaloneSession(
      CleaningInputs::Borrowed(&save_data.dataset, &save_data.dcs), {config});
  if (!opened.ok()) return 1;
  Session session = std::move(opened).value();
  if (!session.RunThrough(StageId::kLearn).ok()) return 1;

  Variant variants[] = {
      {"v2 raw", {SectionCodec::kRaw}, false},
      {"v2 packed", {SectionCodec::kPacked}, false},
      {"v2 packed + mmap", {SectionCodec::kPacked}, true},
  };
  constexpr size_t kVariants = sizeof(variants) / sizeof(variants[0]);
  VariantResult results[kVariants];
  for (size_t i = 0; i < kVariants; ++i) {
    const Variant& variant = variants[i];
    VariantResult& r = results[i];
    timer.Reset();
    Status saved = session.Save(kSnapshotPath, variant.save);
    r.save_seconds = timer.Seconds();
    if (!saved.ok()) {
      std::fprintf(stderr, "%s save failed: %s\n", variant.name,
                   saved.ToString().c_str());
      return 1;
    }
    r.bytes = FileSize(kSnapshotPath);

    // Restore into a fresh dataset (as a new process would) and finish the
    // pipeline from inference.
    GeneratedData restore_data = MakeFood({rows, 0.06, 7});
    SessionOptions restore_options;
    restore_options.config = config;
    restore_options.snapshot_path = kSnapshotPath;
    restore_options.load_options.lazy_graph = variant.mmap_restore;
    timer.Reset();
    auto restored = OpenStandaloneSession(
        CleaningInputs::Borrowed(&restore_data.dataset, &restore_data.dcs),
        restore_options);
    r.restore_seconds = timer.Seconds();
    if (!restored.ok()) {
      std::fprintf(stderr, "%s restore failed: %s\n", variant.name,
                   restored.status().ToString().c_str());
      return 1;
    }
    timer.Reset();
    auto resumed = restored.value().Run();
    r.resume_seconds = timer.Seconds();
    if (!resumed.ok()) return 1;
    r.identical = SameRepairs(resumed.value().repairs, reference);
  }

  std::vector<int> widths = {18, 11, 10, 11, 11, 11};
  PrintRule(widths);
  PrintRow({"Variant", "size (MiB)", "save (s)", "restore (s)",
            "resume (s)", "rest+res"},
           widths);
  PrintRule(widths);
  for (size_t i = 0; i < kVariants; ++i) {
    const VariantResult& r = results[i];
    PrintRow({variants[i].name,
              Fmt(static_cast<double>(r.bytes) / (1024.0 * 1024.0), 1),
              Fmt(r.save_seconds), Fmt(r.restore_seconds),
              Fmt(r.resume_seconds),
              Fmt(r.restore_seconds + r.resume_seconds)},
             widths);
  }
  PrintRule(widths);

  double ratio = results[1].bytes > 0
                     ? static_cast<double>(results[0].bytes) /
                           static_cast<double>(results[1].bytes)
                     : 0.0;
  bool all_identical = true;
  for (const VariantResult& r : results) all_identical &= r.identical;
  double warm = results[1].restore_seconds + results[1].resume_seconds;
  std::printf(
      "cold run: %ss; packed restore+resume vs cold: %sx\n"
      "on-disk size reduction (v2 raw -> v2 packed): %sx\n"
      "mmap restore-to-session-ready: %ss vs eager packed %ss\n"
      "repairs %s\n",
      Fmt(cold_seconds).c_str(),
      warm > 0.0 ? Fmt(cold_seconds / warm, 1).c_str() : "-",
      Fmt(ratio, 2).c_str(), Fmt(results[2].restore_seconds).c_str(),
      Fmt(results[1].restore_seconds).c_str(),
      all_identical ? "bit-identical to the cold run for every variant"
                    : "DIFFER (BUG)");

  const char* keys[] = {"v2_raw", "v2_packed", "v2_packed_mmap"};
  for (size_t i = 0; i < kVariants; ++i) {
    std::string prefix = keys[i];
    AppendBenchMetric("micro_persist", prefix + "_bytes",
                      static_cast<double>(results[i].bytes));
    AppendBenchMetric("micro_persist", prefix + "_save_seconds",
                      results[i].save_seconds);
    AppendBenchMetric("micro_persist", prefix + "_restore_seconds",
                      results[i].restore_seconds);
    AppendBenchMetric("micro_persist", prefix + "_resume_seconds",
                      results[i].resume_seconds);
  }
  AppendBenchMetric("micro_persist", "cold_seconds", cold_seconds);
  AppendBenchMetric("micro_persist", "size_reduction_raw_over_packed", ratio);
  AppendBenchMetric("micro_persist", "repairs_identical",
                    all_identical ? 1.0 : 0.0);

  std::remove(kSnapshotPath);
  return all_identical ? 0 : 1;
}
