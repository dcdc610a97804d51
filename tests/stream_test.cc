// Tests for streaming ingestion (src/holoclean/stream): differential
// equivalence of batched appends against cleaning the final table from
// scratch (bit-identical violations, noisy cells, domains, and repairs
// across batch sizes, thread counts, and seeds), append-after-restore (eager and lazy),
// failpoint-injected faults leaving the session cleanly recoverable, the
// append_rows wire op on a warm served session, and the rollback
// primitive underneath (Table::Truncate).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "holoclean/data/hospital.h"
#include "holoclean/serve/protocol.h"
#include "holoclean/serve/server.h"
#include "holoclean/stream/stream_session.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/failpoint.h"
#include "session_helpers.h"

namespace holoclean {
namespace {

using test_helpers::OpenSessionOver;
using test_helpers::RestoreSessionOver;

/// The full generated table split into a base prefix and an append tail,
/// both as raw string rows (the form rows arrive in over every streaming
/// surface). The constraints are attribute-id based, so they apply to any
/// table built from the same header.
struct SplitData {
  CsvDocument base;            ///< Header + first `base_rows` dirty rows.
  CsvDocument full;            ///< Header + all dirty rows.
  std::vector<std::vector<std::string>> tail;        ///< Dirty tail rows.
  std::vector<DenialConstraint> dcs;
  std::string dc_text;         ///< Re-parsable constraint listing (wire).
};

SplitData MakeSplit(size_t total_rows, size_t base_rows, uint64_t seed) {
  HospitalOptions options;
  options.num_rows = total_rows;
  options.error_rate = 0.08;
  options.seed = seed;
  GeneratedData data = MakeHospital(options);
  SplitData split;
  split.full = data.dataset.dirty().ToCsv();
  split.base.header = split.full.header;
  for (size_t i = 0; i < split.full.rows.size(); ++i) {
    if (i < base_rows) {
      split.base.rows.push_back(split.full.rows[i]);
    } else {
      split.tail.push_back(split.full.rows[i]);
    }
  }
  for (const DenialConstraint& dc : data.dcs) {
    split.dc_text += dc.ToString(data.dataset.dirty().schema()) + "\n";
  }
  split.dcs = std::move(data.dcs);
  return split;
}

/// The artifacts the differential asserts on.
struct Artifacts {
  ViolationSet violations;
  std::vector<CellRef> noisy;
  std::unordered_map<CellRef, std::vector<ValueId>, CellRefHash> domains;
  std::vector<Repair> repairs;
};

Artifacts Capture(const Session& session, const Report& report) {
  Artifacts out;
  out.violations = session.context().violations;
  out.noisy = session.context().noisy.cells();
  out.domains = session.context().domains.candidates;
  out.repairs = report.repairs;
  return out;
}

/// The violation sets and the noisy cells, in order.
void ExpectDetectEqual(const Artifacts& a, const Artifacts& b) {
  EXPECT_TRUE(a.violations == b.violations);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.noisy, b.noisy);
}

void ExpectRepairsBitIdentical(const std::vector<Repair>& a,
                               const std::vector<Repair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].cell == b[i].cell) << "repair " << i;
    EXPECT_EQ(a[i].old_value, b[i].old_value) << "repair " << i;
    EXPECT_EQ(a[i].new_value, b[i].new_value) << "repair " << i;
    EXPECT_EQ(a[i].probability, b[i].probability) << "repair " << i;
  }
}

HoloCleanConfig FastConfig() {
  HoloCleanConfig config;
  config.tau = 0.5;
  config.epochs = 8;
  config.gibbs_burn_in = 3;
  config.gibbs_samples = 10;
  return config;
}

/// From-scratch reference: clean the full table in one cold session.
/// Both this and the streamed path intern values row-major from the same
/// CSV rows, so every ValueId (and hence every artifact) is comparable.
Artifacts RunScratch(const HoloCleanConfig& config, const SplitData& split) {
  auto table = Table::FromCsv(split.full);
  EXPECT_TRUE(table.ok()) << table.status();
  Dataset dataset(std::move(table).value());
  auto session = OpenSessionOver(config, &dataset, split.dcs);
  EXPECT_TRUE(session.ok()) << session.status();
  auto report = session.value().RunThrough(StageId::kRepair);
  EXPECT_TRUE(report.ok()) << report.status();
  return Capture(session.value(), report.value());
}

/// Streams the tail in `batch_rows`-sized batches over a warm base
/// session and returns the final artifacts plus the stream stats.
struct StreamOutcome {
  Artifacts artifacts;
  StreamStats stats;
};

StreamOutcome RunStreamed(const HoloCleanConfig& config,
                          const SplitData& split, size_t batch_rows) {
  auto table = Table::FromCsv(split.base);
  EXPECT_TRUE(table.ok()) << table.status();
  Dataset dataset(std::move(table).value());
  auto session = OpenSessionOver(config, &dataset, split.dcs);
  EXPECT_TRUE(session.ok()) << session.status();
  auto initial = session.value().RunThrough(StageId::kRepair);
  EXPECT_TRUE(initial.ok()) << initial.status();

  StreamSession stream(&session.value());
  Report report = initial.value();
  for (size_t begin = 0; begin < split.tail.size(); begin += batch_rows) {
    size_t end = begin + batch_rows < split.tail.size()
                     ? begin + batch_rows
                     : split.tail.size();
    std::vector<std::vector<std::string>> batch(
        split.tail.begin() + static_cast<std::ptrdiff_t>(begin),
        split.tail.begin() + static_cast<std::ptrdiff_t>(end));
    auto updated = stream.AppendRows(batch);
    EXPECT_TRUE(updated.ok()) << updated.status();
    if (!updated.ok()) break;
    report = updated.value();
  }
  StreamOutcome out;
  out.artifacts = Capture(session.value(), report);
  out.stats = stream.stats();
  return out;
}

// --- Exact-mode differential -------------------------------------------------

TEST(Stream, ExactModeIsBitIdenticalAcrossBatchSizes) {
  SplitData split = MakeSplit(168, 120, 4101);
  HoloCleanConfig config = FastConfig();
  Artifacts scratch = RunScratch(config, split);
  ASSERT_FALSE(scratch.repairs.empty());

  for (size_t batch_rows : {size_t{1}, size_t{16}, size_t{64}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    StreamOutcome streamed = RunStreamed(config, split, batch_rows);
    ExpectDetectEqual(scratch, streamed.artifacts);
    EXPECT_EQ(scratch.domains, streamed.artifacts.domains);
    ExpectRepairsBitIdentical(scratch.repairs, streamed.artifacts.repairs);
    EXPECT_EQ(streamed.stats.appended_rows, split.tail.size());
  }
}

TEST(Stream, ExactModeIsBitIdenticalAcrossThreadCountsAndSeeds) {
  for (uint64_t seed : {uint64_t{42}, uint64_t{7}}) {
    SplitData split = MakeSplit(160, 128, 5200 + seed);
    for (size_t threads : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      HoloCleanConfig config = FastConfig();
      config.seed = seed;
      config.num_threads = threads;
      Artifacts scratch = RunScratch(config, split);
      StreamOutcome streamed = RunStreamed(config, split, 16);
      ExpectDetectEqual(scratch, streamed.artifacts);
      EXPECT_EQ(scratch.domains, streamed.artifacts.domains);
      ExpectRepairsBitIdentical(scratch.repairs, streamed.artifacts.repairs);
    }
  }
}

TEST(Stream, AppendOnNeverRunSessionFallsBackToFullRun) {
  SplitData split = MakeSplit(150, 120, 6300);
  HoloCleanConfig config = FastConfig();
  Artifacts scratch = RunScratch(config, split);

  auto table = Table::FromCsv(split.base);
  ASSERT_TRUE(table.ok());
  Dataset dataset(std::move(table).value());
  auto session = OpenSessionOver(config, &dataset, split.dcs);
  ASSERT_TRUE(session.ok());
  StreamSession stream(&session.value());  // No initial run.
  auto report = stream.AppendRows(split.tail);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(stream.stats().last_batch.full_run);
  Artifacts streamed = Capture(session.value(), report.value());
  ExpectDetectEqual(scratch, streamed);
  EXPECT_EQ(scratch.domains, streamed.domains);
  ExpectRepairsBitIdentical(scratch.repairs, streamed.repairs);
}

// --- Restore interplay -------------------------------------------------------

TEST(Stream, AppendAfterSnapshotRestoreMatchesScratch) {
  SplitData split = MakeSplit(150, 120, 9600);
  HoloCleanConfig config = FastConfig();
  Artifacts scratch = RunScratch(config, split);

  std::string snapshot =
      ::testing::TempDir() + "stream_restore_snapshot.hcsnap";
  auto table = Table::FromCsv(split.base);
  ASSERT_TRUE(table.ok());
  Dataset dataset(std::move(table).value());
  {
    auto session = OpenSessionOver(config, &dataset, split.dcs);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().RunThrough(StageId::kRepair).ok());
    ASSERT_TRUE(session.value().Save(snapshot, {}).ok());
  }
  // A lazy restore defers the factor-graph section, which the append's
  // re-compile then drops unread.
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy restore" : "eager restore");
    auto restored_table = Table::FromCsv(split.base);
    ASSERT_TRUE(restored_table.ok());
    Dataset restored_data(std::move(restored_table).value());
    SnapshotLoadOptions load;
    load.lazy_graph = lazy;
    auto restored = RestoreSessionOver(config, snapshot, &restored_data,
                                       split.dcs, nullptr, nullptr, nullptr,
                                       load);
    ASSERT_TRUE(restored.ok()) << restored.status();

    StreamSession stream(&restored.value());
    auto report = stream.AppendRows(split.tail);
    ASSERT_TRUE(report.ok()) << report.status();
    Artifacts streamed = Capture(restored.value(), report.value());
    ExpectDetectEqual(scratch, streamed);
    EXPECT_EQ(scratch.domains, streamed.domains);
    ExpectRepairsBitIdentical(scratch.repairs, streamed.repairs);
  }
  std::remove(snapshot.c_str());
}

// --- Fault injection ---------------------------------------------------------

struct FailpointCase {
  const char* profile;
  bool rows_rolled_back;
};

TEST(Stream, InjectedFaultsRollBackAndStayRecoverable) {
  SplitData split = MakeSplit(140, 120, 1700);
  HoloCleanConfig config = FastConfig();
  Artifacts scratch = RunScratch(config, split);

  for (FailpointCase fc : std::vector<FailpointCase>{
           {"stream.append.intern=always/error", true},
           {"stream.append.detect=always/error", true},
           {"stream.append.commit=always/error", true}}) {
    SCOPED_TRACE(fc.profile);
    auto table = Table::FromCsv(split.base);
    ASSERT_TRUE(table.ok());
    Dataset dataset(std::move(table).value());
    auto session = OpenSessionOver(config, &dataset, split.dcs);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().RunThrough(StageId::kRepair).ok());
    const size_t base_rows = dataset.dirty().num_rows();
    const size_t base_violations = session.value().context().violations.size();

    StreamSession stream(&session.value());
    {
      ScopedFailpoints armed(fc.profile);
      auto failed = stream.AppendRows(split.tail);
      EXPECT_FALSE(failed.ok());
    }
    // The fault left no trace: table and detect artifacts are pre-batch.
    EXPECT_EQ(dataset.dirty().num_rows(), base_rows);
    EXPECT_EQ(session.value().context().violations.size(), base_violations);
    EXPECT_EQ(stream.stats().appended_rows, 0u);

    // The session is cleanly recoverable: the same append now succeeds
    // and the result matches the from-scratch clean exactly.
    auto report = stream.AppendRows(split.tail);
    ASSERT_TRUE(report.ok()) << report.status();
    Artifacts streamed = Capture(session.value(), report.value());
    ExpectDetectEqual(scratch, streamed);
    ExpectRepairsBitIdentical(scratch.repairs, streamed.repairs);
  }
}

// --- Wire surface ------------------------------------------------------------

TEST(Stream, AppendRowsOverWireMatchesBatchBaseline) {
  SplitData split = MakeSplit(150, 120, 3900);

  serve::ServerOptions options;
  options.default_config = FastConfig();
  options.engine_threads = 2;
  serve::CleaningServer server(std::move(options));

  auto frame = [&](serve::Request req) { return server.Handle(req.ToJson()); };

  // Register the base table for the streaming tenant and the full table
  // as the batch baseline, then warm the streaming slot with a clean.
  serve::Request reg;
  reg.op = serve::Op::kRegisterDataset;
  reg.tenant = "stream";
  reg.dataset = "hospital";
  reg.csv_text = WriteCsv(split.base);
  reg.dc_text = split.dc_text;
  ASSERT_TRUE(frame(reg).GetBool("ok"));
  reg.tenant = "batch";
  reg.csv_text = WriteCsv(split.full);
  ASSERT_TRUE(frame(reg).GetBool("ok"));

  serve::Request clean;
  clean.op = serve::Op::kClean;
  clean.tenant = "stream";
  clean.dataset = "hospital";
  JsonValue warm_clean = frame(clean);
  ASSERT_TRUE(warm_clean.GetBool("ok")) << warm_clean.Dump();

  // Append the tail through the wire op on the warm session.
  serve::Request append;
  append.op = serve::Op::kAppendRows;
  append.tenant = "stream";
  append.dataset = "hospital";
  append.rows = split.tail;
  JsonValue appended = frame(append);
  ASSERT_TRUE(appended.GetBool("ok")) << appended.Dump();
  EXPECT_EQ(appended.GetInt("appended"),
            static_cast<int64_t>(split.tail.size()));
  EXPECT_EQ(appended.GetInt("rows"),
            static_cast<int64_t>(split.full.rows.size()));

  // The serve tier streams in exact mode: its repairs are bit-identical
  // to a batch clean of the full table.
  clean.tenant = "batch";
  JsonValue baseline = frame(clean);
  ASSERT_TRUE(baseline.GetBool("ok")) << baseline.Dump();
  const JsonValue* append_report = appended.Find("report");
  const JsonValue* baseline_report = baseline.Find("report");
  ASSERT_NE(append_report, nullptr);
  ASSERT_NE(baseline_report, nullptr);
  const JsonValue* append_repairs = append_report->Find("repairs");
  const JsonValue* baseline_repairs = baseline_report->Find("repairs");
  ASSERT_NE(append_repairs, nullptr);
  ASSERT_NE(baseline_repairs, nullptr);
  EXPECT_EQ(append_repairs->Dump(), baseline_repairs->Dump());

  // explain_status surfaces the per-session stream counters and the rows
  // of the grown table, not the registered base.
  serve::Request status;
  status.op = serve::Op::kExplainStatus;
  status.tenant = "stream";
  status.dataset = "hospital";
  JsonValue st = frame(status);
  ASSERT_TRUE(st.GetBool("ok")) << st.Dump();
  EXPECT_EQ(st.GetInt("rows"), static_cast<int64_t>(split.full.rows.size()));
  const JsonValue* stream_obj = st.Find("stream");
  ASSERT_NE(stream_obj, nullptr);
  EXPECT_EQ(stream_obj->GetInt("appended_rows"),
            static_cast<int64_t>(split.tail.size()));
  EXPECT_GE(stream_obj->GetInt("batches"), 1);
  EXPECT_EQ(stream_obj->Find("compactions"), nullptr);

  serve::Request bad;
  bad.op = serve::Op::kAppendRows;
  bad.tenant = "stream";
  bad.dataset = "hospital";
  JsonValue rejected = frame(bad);  // Empty rows are an error.
  EXPECT_FALSE(rejected.GetBool("ok"));
}

// --- Append primitives -------------------------------------------------------

TEST(Stream, TableTruncateRestoresExactPreAppendState) {
  SplitData split = MakeSplit(130, 100, 1234);
  auto table = Table::FromCsv(split.base);
  ASSERT_TRUE(table.ok());
  Table original = table.value().Clone();
  Table& t = table.value();
  for (const auto& row : split.tail) t.AppendRow(row);
  ASSERT_EQ(t.num_rows(), split.full.rows.size());
  t.Truncate(original.num_rows());
  ASSERT_EQ(t.num_rows(), original.num_rows());
  for (size_t tid = 0; tid < t.num_rows(); ++tid) {
    for (AttrId a = 0; a < static_cast<AttrId>(t.schema().num_attrs()); ++a) {
      CellRef cell{static_cast<TupleId>(tid), a};
      EXPECT_EQ(t.Get(cell), original.Get(cell));
    }
  }
  // The serialized form round-trips too (codes, counts, and the decoded
  // mirror all rolled back together).
  EXPECT_EQ(WriteCsv(t.ToCsv()), WriteCsv(original.ToCsv()));
}

}  // namespace
}  // namespace holoclean
