// Differential tests for the columnar scan paths: every artifact the
// pipeline produces must be bit-identical to the row-at-a-time reference
// implementations in tests/oracle/, for any seed, dataset, and thread
// count. Plus the ColumnStore invariants the scans rely on and the
// snapshot back-compat contract for the kColumnStore section.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/io/binary_io.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/stats/cooccurrence.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/rng.h"
#include "oracle/oracle.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Full-pipeline differential ----------

/// One completed run. The session keeps the context alive.
struct PipelineRun {
  std::unique_ptr<GeneratedData> data;
  std::unique_ptr<Session> session;
  Report report;
};

PipelineRun RunOn(std::unique_ptr<GeneratedData> data, HoloCleanConfig config,
                  size_t threads) {
  PipelineRun run;
  run.data = std::move(data);
  config.num_threads = threads;
  auto opened = test_helpers::OpenSessionOver(config, &run.data->dataset,
                                              run.data->dcs);
  EXPECT_TRUE(opened.ok());
  run.session = std::make_unique<Session>(std::move(opened).value());
  auto report = run.session->Run();
  EXPECT_TRUE(report.ok());
  run.report = std::move(report).value();
  return run;
}

PipelineRun RunFood(size_t rows, uint64_t seed, size_t threads) {
  HoloCleanConfig config;
  config.tau = 0.5;
  return RunOn(std::make_unique<GeneratedData>(MakeFood({rows, 0.06, seed})),
               config, threads);
}

PipelineRun RunHospital(size_t rows, uint64_t seed, size_t threads) {
  HospitalOptions options;
  options.num_rows = rows;
  options.seed = seed;
  return RunOn(std::make_unique<GeneratedData>(MakeHospital(options)),
               HoloCleanConfig(), threads);
}

TEST(ColumnarPipeline, BitIdenticalToRowPathAcrossSeeds) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    PipelineRun run = RunFood(400, seed, /*threads=*/1);
    EXPECT_GT(run.report.stats.num_violations, 0u);
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << "seed " << seed;
  }
}

TEST(ColumnarPipeline, BitIdenticalAcrossThreadCounts) {
  // Detection, co-occurrence counting, and domain pruning fan out across
  // the pool; the output must not depend on the pool size (the oracle
  // runs single-threaded).
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    PipelineRun run = RunFood(400, 21, threads);
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << threads << " threads";
  }
}

TEST(ColumnarPipeline, BitIdenticalOnHospitalProfile) {
  // A second data profile: few distinct values per column with heavy
  // duplication — the opposite dictionary shape from Food.
  for (uint64_t seed : {101u, 102u, 103u}) {
    PipelineRun run = RunHospital(150, seed, /*threads=*/4);
    EXPECT_GT(run.report.stats.num_violations, 0u);
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << "seed " << seed;
  }
}

// ---------- Co-occurrence differential ----------

Table RandomTable(size_t rows, size_t attrs, uint64_t seed,
                  size_t distinct_per_attr) {
  std::vector<std::string> names;
  for (size_t a = 0; a < attrs; ++a) names.push_back("A" + std::to_string(a));
  Table t(Schema(names), std::make_shared<Dictionary>());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < attrs; ++a) {
      // ~10% NULLs so the skip-null rule is exercised.
      if (rng.Next() % 10 == 0) {
        row.push_back("");
      } else {
        row.push_back("v" + std::to_string(rng.Next() % distinct_per_attr));
      }
    }
    t.AppendRow(row);
  }
  return t;
}

TEST(ColumnarCooccurrence, BuildColumnarMatchesBuildOnRandomTables) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Table t = RandomTable(300, 4, seed, 12);
    std::vector<AttrId> attrs = {0, 1, 2, 3};
    oracle::CooccurrenceCounts recount = oracle::CountCooccurrence(t, attrs);
    EXPECT_GT(recount.num_pair_entries, 0u);
    EXPECT_EQ(oracle::DiffCooccurrence(
                  CooccurrenceStats::BuildColumnar(t, attrs), recount, attrs),
              "");
    ThreadPool pool(4);
    EXPECT_EQ(oracle::DiffCooccurrence(
                  CooccurrenceStats::BuildColumnar(t, attrs, &pool), recount,
                  attrs),
              "");
  }
}

TEST(ColumnarCooccurrence, MatchesAfterCellMutations) {
  // Set() rewrites codes, counts, and the decoded mirror together; the
  // counting pass must see the post-mutation state.
  Table t = RandomTable(120, 3, 9, 8);
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    TupleId tid = static_cast<TupleId>(rng.Next() % t.num_rows());
    AttrId attr = static_cast<AttrId>(rng.Next() % 3);
    t.SetString(tid, attr, "w" + std::to_string(rng.Next() % 5));
  }
  std::vector<AttrId> attrs = {0, 1, 2};
  EXPECT_EQ(oracle::DiffCooccurrence(CooccurrenceStats::BuildColumnar(t, attrs),
                                     oracle::CountCooccurrence(t, attrs),
                                     attrs),
            "");
}

// ---------- Domain pruning differential ----------

/// One pruning configuration: a generated dataset, τ and the cap.
struct PruneCase {
  const char* dataset;  // "food", "hospital" or "random"
  const char* tau_name;
  double tau;
  size_t max_candidates;
};

void PrintTo(const PruneCase& c, std::ostream* os) {
  *os << c.dataset << " tau=" << c.tau_name << " cap=" << c.max_candidates;
}

std::vector<PruneCase> PruneCases() {
  const std::vector<std::pair<const char*, double>> taus = {
      {"m0p5", -0.5},       {"0", 0.0},          {"0p1", 0.1},
      {"third", 1.0 / 3.0}, {"0p5", 0.5},        {"twothirds", 2.0 / 3.0},
      {"0p9", 0.9},         {"1", 1.0},          {"1p5", 1.5},
      {"nan", std::numeric_limits<double>::quiet_NaN()}};
  std::vector<PruneCase> cases;
  for (const char* dataset : {"food", "hospital", "random"}) {
    for (const auto& [name, tau] : taus) {
      for (size_t cap : {size_t{1}, size_t{3}, size_t{64}}) {
        cases.push_back({dataset, name, tau, cap});
      }
    }
  }
  return cases;
}

/// The generated Food and Hospital tables hold no NULL cells; the random
/// one holds ~10%, for NULL cells and NULL contexts.
Table PruneTable(const std::string& dataset, std::vector<AttrId>* attrs) {
  if (dataset == "random") {
    *attrs = {0, 1, 2, 3};
    return RandomTable(400, 4, 5, 12);
  }
  HospitalOptions hospital;
  hospital.num_rows = 300;
  hospital.seed = 5;
  GeneratedData data =
      dataset == "food" ? MakeFood({600, 0.06, 5}) : MakeHospital(hospital);
  *attrs = data.dataset.RepairableAttrs();
  return data.dataset.dirty().Clone();
}

class PruneDifferential : public ::testing::TestWithParam<PruneCase> {};

TEST_P(PruneDifferential, EarlyExitMatchesFullScanOracle) {
  // The production pass stops at the first count-ordered entry below
  // τ·#v'; the oracle scans every by-value run whole. Every cell of the
  // table is pruned, NULL ones and those with NULL context included.
  const PruneCase& c = GetParam();
  std::vector<AttrId> attrs;
  const Table table = PruneTable(c.dataset, &attrs);
  std::vector<CellRef> cells;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    for (AttrId a : attrs) cells.push_back({static_cast<TupleId>(t), a});
  }
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(table, attrs);
  DomainPruningOptions options;
  options.tau = c.tau;
  options.max_candidates = c.max_candidates;
  PrunedDomains expected =
      oracle::PruneDomains(table, cells, attrs, cooc, options);
  ASSERT_EQ(expected.candidates.size(), cells.size());
  EXPECT_GE(expected.TotalCandidates(), cells.size());
  EXPECT_TRUE(PruneDomainsColumnar(table, cells, attrs, cooc, options)
                  .candidates == expected.candidates);
  ThreadPool pool(4);
  EXPECT_TRUE(PruneDomainsColumnar(table, cells, attrs, cooc, options, &pool)
                  .candidates == expected.candidates);
}

INSTANTIATE_TEST_SUITE_P(
    TausAndCaps, PruneDifferential, ::testing::ValuesIn(PruneCases()),
    [](const ::testing::TestParamInfo<PruneCase>& info) {
      return std::string(info.param.dataset) + "_tau_" +
             info.param.tau_name + "_cap" +
             std::to_string(info.param.max_candidates);
    });

TEST(ColumnarPruning, PairCountEqualToTauTimesContextCountPasses) {
  // #v' = 4 for B = c, and A = x co-occurs with it twice: at τ = 0.5 the
  // pair count equals τ·#v' exactly, which passes (>=), while y and z
  // (once each) do not.
  Table t(Schema({"A", "B"}), std::make_shared<Dictionary>());
  for (const char* a : {"x", "x", "y", "z"}) t.AppendRow({a, "c"});
  std::vector<AttrId> attrs = {0, 1};
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, attrs);
  DomainPruningOptions options;
  options.tau = 0.5;
  PrunedDomains got = PruneDomainsColumnar(t, {{3, 0}}, attrs, cooc, options);
  const std::vector<ValueId> expected = {t.dict().Lookup("z"),
                                         t.dict().Lookup("x")};
  EXPECT_EQ(got.For({3, 0}), expected);
  EXPECT_TRUE(got.candidates ==
              oracle::PruneDomains(t, {{3, 0}}, attrs, cooc, options)
                  .candidates);
}

// ---------- Detection fallback / truncation differential ----------

TEST(ColumnarDetect, TruncationDifferentialAndFlag) {
  // A constraint with no equality predicate falls back to the capped
  // brute-force pair scan. Production and oracle must truncate at the same
  // point, report the same truncated set, and emit identical violations.
  Table t(Schema({"Name", "Score"}), std::make_shared<Dictionary>());
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    t.AppendRow({"n" + std::to_string(i),
                 std::to_string(rng.Next() % 40)});
  }
  auto dcs = ParseDenialConstraints(
      "t1&t2&GT(t1.Score,t2.Score)\n"
      "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Score,t2.Score)\n",
      t.schema());
  ASSERT_TRUE(dcs.ok());

  ViolationDetector::Options options;
  options.max_fallback_pairs = 500;  // 60 rows -> 1770 pairs: truncates.
  DetectResult col = ViolationDetector(&t, &dcs.value(), options).DetectAll();
  DetectResult row = oracle::DetectViolations(t, dcs.value(), 0.8, 500);

  ASSERT_EQ(col.truncated_dcs, std::vector<int>{0});
  ASSERT_EQ(row.truncated_dcs, std::vector<int>{0});
  EXPECT_EQ(oracle::DiffViolations(col.violations, row.violations), "");

  // A budget that covers the full scan reports no truncation.
  options.max_fallback_pairs = 4'000'000;
  DetectResult full = ViolationDetector(&t, &dcs.value(), options).DetectAll();
  EXPECT_TRUE(full.truncated_dcs.empty());
  EXPECT_GT(full.violations.size(), col.violations.size());
  EXPECT_EQ(oracle::DiffViolations(
                full.violations,
                oracle::DetectViolations(t, dcs.value()).violations),
            "");
}

TEST(ColumnarDetect, RunStatsDefaultUntruncated) {
  // The session surfaces truncation in RunStats; the default budget is
  // far above these sizes, so the flag must stay clear.
  PipelineRun run = RunFood(200, 4, /*threads=*/1);
  EXPECT_FALSE(run.report.stats.detect_truncated);
  EXPECT_EQ(run.report.stats.num_truncated_dcs, 0u);
}

// ---------- ColumnStore invariants ----------

TEST(ColumnStore, FromCsvDictionariesSortedAndCountsExact) {
  CsvDocument doc;
  doc.header = {"City", "Zip"};
  doc.rows = {{"Chicago", "60608"}, {"Evanston", "60201"},
              {"Chicago", "60608"}, {"", "60609"},
              {"Aurora", "60506"},  {"Chicago", ""}};
  auto table = Table::FromCsv(doc);
  ASSERT_TRUE(table.ok());
  const Table& t = table.value();
  const ColumnStore& store = t.store();
  ASSERT_EQ(store.num_attrs(), 2u);
  ASSERT_EQ(store.num_rows(), 6u);

  for (size_t a = 0; a < 2; ++a) {
    const ColumnStore::Column& col = store.column(a);
    // Code 0 is NULL; the bulk load leaves the whole dictionary sorted.
    ASSERT_GE(col.code_to_value.size(), 1u);
    EXPECT_EQ(col.code_to_value[0], Dictionary::kNull);
    EXPECT_EQ(col.sorted_prefix, col.code_to_value.size());
    for (size_t c = 2; c < col.code_to_value.size(); ++c) {
      EXPECT_LT(t.dict().GetString(col.code_to_value[c - 1]),
                t.dict().GetString(col.code_to_value[c]))
          << "column " << a << " codes " << c - 1 << "," << c;
    }
    // The decoded mirror matches codes -> code_to_value, and counts are
    // exact occurrence counts.
    ASSERT_EQ(col.codes.size(), store.num_rows());
    ASSERT_EQ(col.values.size(), store.num_rows());
    std::vector<uint32_t> counts(col.code_to_value.size(), 0);
    for (size_t r = 0; r < col.codes.size(); ++r) {
      Code code = col.codes[r];
      ASSERT_GE(code, 0);
      ASSERT_LT(static_cast<size_t>(code), col.code_to_value.size());
      EXPECT_EQ(col.values[r], col.code_to_value[static_cast<size_t>(code)]);
      counts[static_cast<size_t>(code)]++;
    }
    EXPECT_EQ(counts, col.code_counts);
  }
  // City has 3 distinct non-null values; the active domain is ascending.
  std::vector<ValueId> dom = store.ActiveDomain(0);
  EXPECT_EQ(dom.size(), 3u);
  EXPECT_TRUE(std::is_sorted(dom.begin(), dom.end()));
}

TEST(ColumnStore, SetKeepsCodesCountsAndMirrorInSync) {
  Table t = RandomTable(50, 2, 13, 6);
  const ColumnStore& store = t.store();
  // Overwrite with a mix of existing values, fresh values (unsorted
  // dictionary tail), and NULL.
  t.SetString(0, 0, "zzz-new");
  t.SetString(1, 0, "v0");
  t.Set(2, 0, Dictionary::kNull);
  const ColumnStore::Column& col = store.column(0);
  EXPECT_EQ(t.GetString(0, 0), "zzz-new");
  EXPECT_EQ(t.GetString(1, 0), "v0");
  EXPECT_EQ(t.Get(2, 0), Dictionary::kNull);
  // The fresh value landed past the sorted prefix.
  EXPECT_LT(col.sorted_prefix, col.code_to_value.size());
  std::vector<uint32_t> counts(col.code_to_value.size(), 0);
  for (size_t r = 0; r < col.codes.size(); ++r) {
    EXPECT_EQ(col.values[r],
              col.code_to_value[static_cast<size_t>(col.codes[r])]);
    counts[static_cast<size_t>(col.codes[r])]++;
  }
  EXPECT_EQ(counts, col.code_counts);
}

// ---------- Snapshot back-compat: v2 without the kColumnStore section ----

struct SnapshotBackCompatFixture {
  SnapshotBackCompatFixture()
      : dataset(MakeDirty()), config() {
    auto parsed = ParseDenialConstraints(
        "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Zip,t2.Zip)\n", schema());
    EXPECT_TRUE(parsed.ok());
    dcs = parsed.value();
    config.gibbs_burn_in = 10;
    config.gibbs_samples = 40;
    path = testing::TempDir() + "holoclean_columnar_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".snapshot";
  }
  ~SnapshotBackCompatFixture() { std::remove(path.c_str()); }

  static Dataset MakeDirty() {
    Table dirty(Schema({"Name", "Zip", "City"}),
                std::make_shared<Dictionary>());
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"a", "60608", "Chicago"});
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"b", "60201", "Evanston"});
    dirty.AppendRow({"a", "60609", "Chicago"});
    return Dataset(std::move(dirty));
  }
  static Schema schema() { return Schema({"Name", "Zip", "City"}); }

  Dataset dataset;
  std::vector<DenialConstraint> dcs;
  HoloCleanConfig config;
  std::string path;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Rewrites a v2 snapshot to drop its trailing kColumnStore section —
/// producing exactly the byte layout a pre-columnar writer emitted — and
/// fixes up the header's directory offset, the directory, and the trailing
/// directory checksum.
std::string DropColumnStoreSection(const std::string& bytes) {
  constexpr size_t kHeaderBytes = 16;
  constexpr size_t kChecksumBytes = 8;
  constexpr size_t kDirEntryBytes = 32;

  BinaryReader header(
      std::string_view(bytes).substr(4, kHeaderBytes - 4));
  uint32_t version = 0;
  uint64_t dir_offset = 0;
  EXPECT_TRUE(header.ReadU32(&version).ok());
  EXPECT_TRUE(header.ReadU64(&dir_offset).ok());
  EXPECT_EQ(version, kSnapshotFormatVersion);

  std::string_view dir_bytes = std::string_view(bytes).substr(
      dir_offset, bytes.size() - dir_offset - kChecksumBytes);
  BinaryReader dir(dir_bytes);
  uint64_t count = 0;
  EXPECT_TRUE(dir.ReadU64(&count).ok());
  EXPECT_GE(count, 2u);

  // The last directory entry must be the kColumnStore section (id 9).
  std::string_view last_entry = dir_bytes.substr(
      8 + (count - 1) * kDirEntryBytes, kDirEntryBytes);
  BinaryReader last(last_entry);
  uint32_t last_id = 0, last_codec = 0;
  uint64_t last_offset = 0, last_size = 0;
  EXPECT_TRUE(last.ReadU32(&last_id).ok());
  EXPECT_TRUE(last.ReadU32(&last_codec).ok());
  EXPECT_TRUE(last.ReadU64(&last_offset).ok());
  EXPECT_TRUE(last.ReadU64(&last_size).ok());
  EXPECT_EQ(last_id, 9u);  // SectionId::kColumnStore.
  EXPECT_EQ(last_offset + last_size, dir_offset);

  // New directory: one fewer entry, earlier offsets unchanged (the dropped
  // section was last).
  BinaryWriter new_dir;
  new_dir.WriteU64(count - 1);
  new_dir.WriteBytes(dir_bytes.substr(8, (count - 1) * kDirEntryBytes));

  BinaryWriter new_header;
  new_header.WriteBytes(std::string_view(bytes).substr(0, 8));
  new_header.WriteU64(last_offset);  // Directory moves up by last_size.
  BinaryWriter trailer;
  trailer.WriteU64(HashBytes(new_dir.buffer()));

  std::string out;
  out += new_header.buffer();
  out += bytes.substr(kHeaderBytes, last_offset - kHeaderBytes);
  out += new_dir.buffer();
  out += trailer.buffer();
  return out;
}

TEST(ColumnarSnapshot, V2WithoutColumnStoreSectionStillRestores) {
  SnapshotBackCompatFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  // Strip the kColumnStore section, emulating a snapshot written before
  // the columnar format extension.
  std::string original = ReadFileBytes(f.path);
  std::string stripped = DropColumnStoreSection(original);
  ASSERT_LT(stripped.size(), original.size());
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(stripped.data(), static_cast<std::streamsize>(stripped.size()));
  }

  // The stripped file restores through the per-cell path and yields the
  // same table contents and repairs as the original run.
  SnapshotBackCompatFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kRepair));

  const Table& a = f.dataset.dirty();
  const Table& b = fresh.dataset.dirty();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t t = 0; t < a.num_rows(); ++t) {
    for (size_t c = 0; c < a.schema().num_attrs(); ++c) {
      EXPECT_EQ(a.GetString(static_cast<TupleId>(t), static_cast<AttrId>(c)),
                b.GetString(static_cast<TupleId>(t), static_cast<AttrId>(c)));
    }
  }
  const std::vector<Repair>& ra = report.value().repairs;
  const std::vector<Repair>& rb = resumed.report().repairs;
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].cell, rb[i].cell);
    EXPECT_EQ(ra[i].old_value, rb[i].old_value);
    EXPECT_EQ(ra[i].new_value, rb[i].new_value);
    EXPECT_EQ(ra[i].probability, rb[i].probability);
  }
}

TEST(ColumnarSnapshot, RoundTripInstallsIdenticalColumns) {
  // A snapshot WITH the section restores via InstallColumns; the resulting
  // store must match the save-time store exactly (codes, dictionaries,
  // counts, mirror, sorted prefixes).
  SnapshotBackCompatFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotBackCompatFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();

  const ColumnStore& a = f.dataset.dirty().store();
  const ColumnStore& b = fresh.dataset.dirty().store();
  ASSERT_EQ(a.num_attrs(), b.num_attrs());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_attrs(); ++c) {
    const ColumnStore::Column& x = a.column(c);
    const ColumnStore::Column& y = b.column(c);
    EXPECT_EQ(x.codes, y.codes) << "column " << c;
    EXPECT_EQ(x.code_to_value, y.code_to_value) << "column " << c;
    EXPECT_EQ(x.code_counts, y.code_counts) << "column " << c;
    EXPECT_EQ(x.values, y.values) << "column " << c;
    EXPECT_EQ(x.sorted_prefix, y.sorted_prefix) << "column " << c;
  }
}

}  // namespace
}  // namespace holoclean
