#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/io/binary_io.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/util/hash.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Binary primitives ----------

TEST(BinaryIo, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25);
  w.WriteString("hello");
  w.WriteString("");

  BinaryReader r(w.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s1, s2;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIo, TruncatedReadsFailCleanly) {
  BinaryWriter w;
  w.WriteU32(5);
  BinaryReader r(w.buffer());
  uint64_t u64 = 0;
  EXPECT_EQ(r.ReadU64(&u64).code(), StatusCode::kParseError);
}

TEST(BinaryIo, HugeCountRejectedBeforeAllocation) {
  BinaryWriter w;
  w.WriteU64(uint64_t{1} << 60);  // Claims 2^60 elements in 0 bytes.
  BinaryReader r(w.buffer());
  size_t n = 0;
  EXPECT_EQ(r.ReadCount(8, &n).code(), StatusCode::kParseError);
}

// ---------- Artifact codecs ----------

TEST(SnapshotCodec, FactorGraphRoundTripsExactly) {
  FactorGraph graph;
  Variable v1;
  v1.cell = {3, 1};
  v1.domain = {5, 9, 11};
  v1.init_index = 1;
  v1.is_evidence = false;
  v1.prior_bias = {0.0, 1.0, 0.0};
  v1.feat_begin = {0, 2, 2, 3};
  v1.features = {{42u, 0.5f}, {43u, 1.0f}, {99u, -2.0f}};
  graph.AddVariable(v1);
  Variable v2;
  v2.cell = {4, 0};
  v2.domain = {7};
  v2.init_index = 0;
  v2.is_evidence = true;
  v2.prior_bias = {0.25};
  v2.feat_begin = {0, 1};
  v2.features = {{7u, 1.0f}};
  graph.AddVariable(v2);
  DcFactor f;
  f.dc_index = 0;
  f.t1 = 3;
  f.t2 = 4;
  f.weight = 4.0;
  f.var_ids = {0, 1};
  graph.AddDcFactor(f);

  BinaryWriter w;
  SerializeFactorGraph(graph, SectionCodec::kRaw, &w);
  BinaryReader r(w.buffer());
  FactorGraph loaded;
  ASSERT_TRUE(DeserializeFactorGraph(&r, SectionCodec::kRaw, &loaded).ok());

  ASSERT_EQ(loaded.num_variables(), 2u);
  EXPECT_EQ(loaded.variable(0).domain, v1.domain);
  EXPECT_EQ(loaded.variable(0).init_index, 1);
  EXPECT_EQ(loaded.variable(0).prior_bias, v1.prior_bias);
  EXPECT_EQ(loaded.variable(0).feat_begin, v1.feat_begin);
  ASSERT_EQ(loaded.variable(0).features.size(), 3u);
  EXPECT_EQ(loaded.variable(0).features[2].weight_key, 99u);
  EXPECT_EQ(loaded.variable(0).features[2].activation, -2.0f);
  EXPECT_TRUE(loaded.variable(1).is_evidence);
  // Derived indexes are rebuilt identically.
  EXPECT_EQ(loaded.query_vars(), std::vector<int32_t>{0});
  EXPECT_EQ(loaded.evidence_vars(), std::vector<int32_t>{1});
  EXPECT_EQ(loaded.VarOfCell({3, 1}), 0);
  ASSERT_EQ(loaded.dc_factors().size(), 1u);
  EXPECT_EQ(loaded.FactorsOfVar(0), std::vector<int32_t>{0});
  EXPECT_EQ(loaded.FactorsOfVar(1), std::vector<int32_t>{0});
  EXPECT_EQ(loaded.NumGroundedFactors(), graph.NumGroundedFactors());
}

TEST(SnapshotCodec, GraphIdsValidatedAgainstBounds) {
  FactorGraph graph;
  Variable v;
  v.cell = {0, 0};
  v.domain = {5};
  v.init_index = 0;
  v.prior_bias = {0.0};
  v.feat_begin = {0, 0};
  graph.AddVariable(v);
  DcFactor f;
  f.dc_index = 1;
  f.var_ids = {0};
  graph.AddDcFactor(f);
  BinaryWriter w;
  SerializeFactorGraph(graph, SectionCodec::kRaw, &w);

  // Domain value id 5 exceeds a 4-entry dictionary.
  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 4;
    EXPECT_EQ(DeserializeFactorGraph(&r, SectionCodec::kRaw, &loaded, bounds).code(),
              StatusCode::kParseError);
  }
  // dc_index 1 exceeds a 1-constraint set.
  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 6;
    bounds.num_dcs = 1;
    EXPECT_EQ(DeserializeFactorGraph(&r, SectionCodec::kRaw, &loaded, bounds).code(),
              StatusCode::kParseError);
  }
  // Within bounds: loads.
  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 6;
    bounds.num_dcs = 2;
    EXPECT_TRUE(DeserializeFactorGraph(&r, SectionCodec::kRaw, &loaded, bounds).ok());
  }
}

TEST(SnapshotCodec, MalformedGraphIsRejectedNotAborted) {
  // A factor referencing a variable id beyond the variable count must fail
  // with a Status (AddDcFactor would write out of bounds otherwise).
  BinaryWriter w;
  w.WriteU64(0);  // No variables.
  w.WriteU64(1);  // One factor.
  w.WriteI32(0);
  w.WriteI32(0);
  w.WriteI32(1);
  w.WriteF64(1.0);
  w.WriteU64(1);
  w.WriteI32(3);  // var_ids = {3} — unknown variable.
  BinaryReader r(w.buffer());
  FactorGraph loaded;
  EXPECT_EQ(DeserializeFactorGraph(&r, SectionCodec::kRaw, &loaded).code(),
            StatusCode::kParseError);
}

TEST(SnapshotCodec, WeightStoreRoundTripsAndIsDeterministic) {
  WeightStore weights;
  weights.Set(17u, 0.5);
  weights.Set(3u, -1.25);
  weights.Set(0xFFFFFFFFFFFFULL, 1e-9);

  BinaryWriter w1;
  SerializeWeightStore(weights, SectionCodec::kRaw, &w1);
  BinaryReader r(w1.buffer());
  WeightStore loaded;
  ASSERT_TRUE(DeserializeWeightStore(&r, SectionCodec::kRaw, &loaded).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.Get(17u), 0.5);
  EXPECT_DOUBLE_EQ(loaded.Get(3u), -1.25);
  EXPECT_DOUBLE_EQ(loaded.Get(0xFFFFFFFFFFFFULL), 1e-9);

  // Same logical content serializes to the same bytes (sorted by key),
  // regardless of hash-map iteration order.
  BinaryWriter w2;
  SerializeWeightStore(loaded, SectionCodec::kRaw, &w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
}

TEST(SnapshotCodec, MarginalsRoundTrip) {
  Marginals m(2);
  m.probs()[0] = {0.25, 0.75};
  m.probs()[1] = {1.0};
  BinaryWriter w;
  SerializeMarginals(m, SectionCodec::kRaw, &w);
  BinaryReader r(w.buffer());
  Marginals loaded(0);
  ASSERT_TRUE(DeserializeMarginals(&r, SectionCodec::kRaw, &loaded).ok());
  EXPECT_EQ(loaded.Of(0), (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(loaded.Of(1), std::vector<double>{1.0});
  EXPECT_EQ(loaded.MapIndex(0), 1);
}

// ---------- Fingerprints ----------

TEST(Fingerprint, SensitiveToResultAffectingKnobsOnly) {
  HoloCleanConfig a;
  HoloCleanConfig b = a;
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
  b.num_threads = 13;  // Thread count never changes results.
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
  b.tau = 0.31;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.gibbs_samples += 1;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
}

// ---------- Whole-session snapshots ----------

struct SnapshotFixture {
  SnapshotFixture() : dataset(MakeDirty()) {
    auto parsed = ParseDenialConstraints(
        "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Zip,t2.Zip)\n"
        "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)\n",
        dataset.dirty().schema());
    EXPECT_TRUE(parsed.ok());
    dcs = parsed.value();
    config.tau = 0.3;
    config.dc_mode = DcMode::kBoth;
    config.partitioning = true;
    config.gibbs_burn_in = 10;
    config.gibbs_samples = 40;
    path = testing::TempDir() + "holoclean_io_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".snapshot";
  }
  ~SnapshotFixture() { std::remove(path.c_str()); }

  static Dataset MakeDirty() {
    Table dirty(Schema({"Name", "Zip", "City"}),
                std::make_shared<Dictionary>());
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"a", "60608", "Chicago"});
    for (int i = 0; i < 5; ++i) dirty.AppendRow({"b", "60201", "Evanston"});
    dirty.AppendRow({"a", "60609", "Chicago"});
    dirty.AppendRow({"b", "60201", "Evnaston"});
    return Dataset(std::move(dirty));
  }

  Dataset dataset;
  std::vector<DenialConstraint> dcs;
  HoloCleanConfig config;
  std::string path;
};

// The acceptance scenario: save after learn, restore in a "fresh process"
// (a second dataset instance), re-run from infer, and compare against an
// uninterrupted in-process run — repairs and marginals bit-identical.
TEST(SessionSnapshot, SaveAfterLearnRestoreRerunFromInferIsBitIdentical) {
  SnapshotFixture f;

  // Uninterrupted reference run.
  SnapshotFixture ref;
  auto ref_session = test_helpers::OpenSessionOver(ref.config, &ref.dataset, ref.dcs);
  ASSERT_TRUE(ref_session.ok());
  auto ref_report = ref_session.value().Run();
  ASSERT_TRUE(ref_report.ok());

  // Interrupted run: stop after learn, save, "restart the process".
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kLearn));
  EXPECT_FALSE(resumed.StageIsValid(StageId::kInfer));
  // The snapshot stores no violation set; the restore re-detects it from
  // the restored table.
  EXPECT_TRUE(resumed.context().violations == session.context().violations);
  EXPECT_GT(resumed.context().violations.size(), 0u);
  // The persisted graph is reused exactly like an in-process rerun: no
  // re-grounding.
  size_t ground_runs_before = resumed.context().ground_runs;
  auto resumed_report = resumed.Run();
  ASSERT_TRUE(resumed_report.ok());
  EXPECT_EQ(resumed.context().ground_runs, ground_runs_before);

  const Report& a = ref_report.value();
  const Report& b = resumed_report.value();
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].old_value, b.repairs[i].old_value);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_DOUBLE_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  // Marginals, bit for bit.
  const auto& ma = ref_session.value().context().marginals.probs();
  const auto& mb = resumed.context().marginals.probs();
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t v = 0; v < ma.size(); ++v) {
    ASSERT_EQ(ma[v].size(), mb[v].size());
    for (size_t k = 0; k < ma[v].size(); ++k) {
      EXPECT_EQ(ma[v][k], mb[v][k]) << "var " << v << " candidate " << k;
    }
  }
}

TEST(SessionSnapshot, FullRunRoundTripsEverything) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kRepair));

  // Everything is cached: Run() is a lookup that returns the saved report.
  auto cached = resumed.Run();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().repairs.size(), report.value().repairs.size());
  EXPECT_EQ(cached.value().posteriors.size(),
            report.value().posteriors.size());
  EXPECT_EQ(cached.value().ddlog, report.value().ddlog);
  EXPECT_EQ(cached.value().stats.num_grounded_factors,
            report.value().stats.num_grounded_factors);
  const auto& timings = cached.value().stats.stage_timings;
  for (const StageTiming& t : timings) EXPECT_TRUE(t.cached);
  // Cached stages cost nothing this run (legacy view agrees).
  EXPECT_DOUBLE_EQ(cached.value().stats.TotalSeconds(), 0.0);
}

TEST(SessionSnapshot, RestoreReplaysFeedbackPins) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto first = session.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().repairs.empty());
  Repair verified = first.value().repairs.front();
  session.PinCell(verified.cell, verified.new_value);
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  // The fresh dataset still holds the pre-pin (dirty) value; restore
  // replays the pinned value onto it.
  SnapshotFixture fresh;
  ASSERT_NE(fresh.dataset.dirty().Get(verified.cell), verified.new_value);
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(fresh.dataset.dirty().Get(verified.cell), verified.new_value);
}

TEST(SessionSnapshot, ConfigFingerprintMismatchRejected) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(opened.value().Save(f.path).ok());

  SnapshotFixture fresh;
  HoloCleanConfig other = f.config;
  other.gibbs_samples += 1;
  auto restored =
      test_helpers::RestoreSessionOver(other, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

  // Thread count is not part of the fingerprint.
  HoloCleanConfig threads = f.config;
  threads.num_threads = 2;
  auto ok = test_helpers::RestoreSessionOver(threads, f.path, &fresh.dataset, fresh.dcs);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(SessionSnapshot, DatasetAndConstraintMismatchRejected) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(opened.value().Save(f.path).ok());

  // Different constraint set.
  SnapshotFixture fresh1;
  std::vector<DenialConstraint> one_dc = {fresh1.dcs[0]};
  auto bad_dcs = test_helpers::RestoreSessionOver(f.config, f.path, &fresh1.dataset, one_dc);
  ASSERT_FALSE(bad_dcs.ok());
  EXPECT_EQ(bad_dcs.status().code(), StatusCode::kInvalidArgument);

  // Different data file: same shape, but the values intern in a different
  // order, so the dictionary prefixes diverge.
  Table other(Schema({"Name", "Zip", "City"}),
              std::make_shared<Dictionary>());
  for (int i = 0; i < 12; ++i) other.AppendRow({"zzz", "10001", "Albany"});
  Dataset other_ds(std::move(other));
  auto bad_data = test_helpers::RestoreSessionOver(f.config, f.path, &other_ds, f.dcs);
  ASSERT_FALSE(bad_data.ok());
  EXPECT_EQ(bad_data.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionSnapshot, ExternalDataInputsMismatchRejected) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(opened.value().Save(f.path).ok());

  // The snapshot was saved without external data; restoring with a
  // dictionary + matching dependency present must be rejected — the
  // cached compile artifacts were not derived from them.
  SnapshotFixture fresh;
  ExtDictCollection dicts;
  Table records(Schema({"Ext_Zip", "Ext_City"}),
                std::make_shared<Dictionary>());
  records.AppendRow({"60608", "Chicago"});
  dicts.Add("listing", std::move(records));
  std::vector<MatchingDependency> mds(1);
  mds[0].dict_id = 0;
  mds[0].conditions.push_back({"Zip", "Ext_Zip", false, 0.85});
  mds[0].target_data_attr = "City";
  mds[0].target_ext_attr = "Ext_City";
  auto restored =
      test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs, &dicts, &mds);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionSnapshot, FailedLoadLeavesDatasetUntouched) {
  // The golden v1 snapshot, tampered so a successful restore WOULD rewrite
  // the table and intern a string: one cell value is rewritten and a
  // dictionary string added. v1's monolithic layout allows rebuilding a
  // checksum-valid file, so with junk appended to the payload every
  // validation passes and parsing fails only at the very end ("trailing
  // bytes") — after all artifact sections were consumed.
  std::string bytes;
  {
    std::ifstream in(std::string(HOLOCLEAN_TEST_DATA_DIR) +
                         "/golden_v1.snapshot",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 24u);
  std::string payload = bytes.substr(16, bytes.size() - 24);

  // Walk the payload header to the dictionary and the cell values.
  BinaryReader reader(payload);
  uint64_t word = 0;
  uint64_t num_attrs = 0;
  uint64_t num_rows = 0;
  std::string name;
  ASSERT_TRUE(reader.ReadU64(&word).ok());  // Config fingerprint.
  ASSERT_TRUE(reader.ReadU64(&num_attrs).ok());
  ASSERT_EQ(num_attrs, 3u);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    ASSERT_TRUE(reader.ReadString(&name).ok());
  }
  ASSERT_TRUE(reader.ReadU64(&num_rows).ok());
  ASSERT_TRUE(reader.ReadU64(&word).ok());  // DC fingerprint.
  ASSERT_TRUE(reader.ReadU64(&word).ok());  // External-data fingerprint.
  const size_t dict_at = payload.size() - reader.remaining();
  uint64_t dict_size = 0;
  ASSERT_TRUE(reader.ReadU64(&dict_size).ok());
  std::vector<std::string> dict(dict_size);
  for (std::string& value : dict) ASSERT_TRUE(reader.ReadString(&value).ok());
  const size_t cells_at = payload.size() - reader.remaining();

  // Cells are stored column by column; rewrite (t11, City) "Evnaston" to
  // "Evanston".
  const CellRef tampered_cell{11, 2};
  const size_t cell_at =
      cells_at + 4 * (static_cast<size_t>(tampered_cell.attr) * num_rows +
                      static_cast<size_t>(tampered_cell.tid));
  auto id_of = [&](const std::string& value) {
    return static_cast<int32_t>(std::find(dict.begin(), dict.end(), value) -
                                dict.begin());
  };
  ASSERT_LT(static_cast<size_t>(id_of("Evanston")), dict.size());
  BinaryReader cell(std::string_view(payload).substr(cell_at, 4));
  int32_t stored = 0;
  ASSERT_TRUE(cell.ReadI32(&stored).ok());
  ASSERT_EQ(stored, id_of("Evnaston"));
  BinaryWriter rewritten_cell;
  rewritten_cell.WriteI32(id_of("Evanston"));
  payload.replace(cell_at, 4, rewritten_cell.buffer());

  // One more dictionary string, appended after the existing ones.
  BinaryWriter dict_count;
  dict_count.WriteU64(dict_size + 1);
  BinaryWriter extra_string;
  extra_string.WriteString("never-interned");
  payload = payload.substr(0, dict_at) + dict_count.buffer() +
            payload.substr(dict_at + 8, cells_at - dict_at - 8) +
            extra_string.buffer() + payload.substr(cells_at) + "junk";

  BinaryWriter tampered;
  tampered.WriteBytes(bytes.substr(0, 4));
  tampered.WriteU32(kSnapshotFormatV1);
  tampered.WriteU64(payload.size());
  tampered.WriteBytes(payload);
  tampered.WriteU64(HashBytes(payload));
  SnapshotFixture f;
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << tampered.buffer();
  }

  SnapshotFixture fresh;
  ValueId before = fresh.dataset.dirty().Get(tampered_cell);
  ASSERT_EQ(fresh.dataset.dirty().dict().GetString(before), "Evnaston");
  size_t dict_before = fresh.dataset.dirty().dict().size();
  ASSERT_LE(dict_before, dict_size);
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("trailing bytes"),
            std::string::npos)
      << restored.status();
  // The failed load committed nothing: no rewritten cell, no interned
  // values.
  EXPECT_EQ(fresh.dataset.dirty().Get(tampered_cell), before);
  EXPECT_EQ(fresh.dataset.dirty().dict().size(), dict_before);
}

TEST(SessionSnapshot, CorruptSectionLeavesDatasetUntouched) {
  // The v2 counterpart: a bit flip inside one section fails that section's
  // checksum, and nothing is committed — the staged-load contract holds
  // for the sectioned format too.
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto first = session.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().repairs.empty());
  Repair verified = first.value().repairs.front();
  session.PinCell(verified.cell, verified.new_value);
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x10);
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  SnapshotFixture fresh;
  ValueId before = fresh.dataset.dirty().Get(verified.cell);
  size_t dict_before = fresh.dataset.dirty().dict().size();
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_EQ(fresh.dataset.dirty().Get(verified.cell), before);
  EXPECT_EQ(fresh.dataset.dirty().dict().size(), dict_before);
}

TEST(SessionSnapshot, VersionMismatchRejected) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().RunThrough(StageId::kDetect).ok());
  ASSERT_TRUE(opened.value().Save(f.path).ok());

  // Bump the version field (bytes 4..7) without touching the payload.
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[4] = static_cast<char>(kSnapshotFormatVersion + 1);
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  SnapshotFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionSnapshot, TruncatedAndCorruptSnapshotsFailCleanly) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  auto report = opened.value().Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(opened.value().Save(f.path).ok());

  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }

  // Truncation at several depths, including mid-header and mid-payload.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{10}, bytes.size() / 2,
                      bytes.size() - 1}) {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, keep);
    out.close();
    SnapshotFixture fresh;
    auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
    ASSERT_FALSE(restored.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError)
        << "kept " << keep << " bytes";
  }

  // Bit flip in the middle of the payload: checksum catches it.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  SnapshotFixture fresh;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);

  // Not a snapshot at all.
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << "name,zip\njust,a csv\n";
  }
  auto not_snapshot = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
  ASSERT_FALSE(not_snapshot.ok());

  EXPECT_EQ(test_helpers::RestoreSessionOver(f.config, "/nonexistent/nope.snapshot", &fresh.dataset,
                            fresh.dcs)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SnapshotCodec, PackedFactorGraphRoundTripsExactly) {
  FactorGraph graph;
  Variable v1;
  v1.cell = {3, 1};
  v1.domain = {5, 9, 11};
  v1.init_index = 1;
  v1.is_evidence = false;
  v1.prior_bias = {0.0, 1.0, 0.0};
  v1.feat_begin = {0, 2, 2, 3};
  v1.features = {{42u, 0.5f}, {43u, 1.0f}, {0xF00000000000BEEFULL, -2.0f}};
  graph.AddVariable(v1);
  Variable v2;
  v2.cell = {4, 0};
  v2.domain = {7};
  v2.init_index = -1;
  v2.is_evidence = true;
  v2.prior_bias = {0.25};
  v2.feat_begin = {0, 1};
  v2.features = {{7u, 1.0f}};
  graph.AddVariable(v2);
  DcFactor f;
  f.dc_index = 0;
  f.t1 = 3;
  f.t2 = 4;
  f.weight = 4.0;
  f.var_ids = {1, 0};  // Deliberately unsorted: order must survive.
  graph.AddDcFactor(f);
  DcFactor g;
  g.dc_index = 1;
  g.t1 = 4;
  g.t2 = 3;
  g.weight = 2.0;
  g.var_ids = {};
  graph.AddDcFactor(g);

  BinaryWriter w;
  SerializeFactorGraph(graph, SectionCodec::kPacked, &w);
  BinaryReader r(w.buffer());
  FactorGraph loaded;
  ASSERT_TRUE(
      DeserializeFactorGraph(&r, SectionCodec::kPacked, &loaded).ok());
  EXPECT_EQ(r.remaining(), 0u);

  ASSERT_EQ(loaded.num_variables(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const Variable& a = graph.variable(static_cast<int>(i));
    const Variable& b = loaded.variable(static_cast<int>(i));
    EXPECT_EQ(a.cell, b.cell) << i;
    EXPECT_EQ(a.domain, b.domain) << i;
    EXPECT_EQ(a.init_index, b.init_index) << i;
    EXPECT_EQ(a.is_evidence, b.is_evidence) << i;
    EXPECT_EQ(a.prior_bias, b.prior_bias) << i;
    EXPECT_EQ(a.feat_begin, b.feat_begin) << i;
    ASSERT_EQ(a.features.size(), b.features.size()) << i;
    for (size_t k = 0; k < a.features.size(); ++k) {
      EXPECT_EQ(a.features[k].weight_key, b.features[k].weight_key);
      EXPECT_EQ(a.features[k].activation, b.features[k].activation);
    }
  }
  ASSERT_EQ(loaded.dc_factors().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.dc_factors()[i].dc_index,
              graph.dc_factors()[i].dc_index);
    EXPECT_EQ(loaded.dc_factors()[i].t1, graph.dc_factors()[i].t1);
    EXPECT_EQ(loaded.dc_factors()[i].t2, graph.dc_factors()[i].t2);
    EXPECT_EQ(loaded.dc_factors()[i].weight, graph.dc_factors()[i].weight);
    EXPECT_EQ(loaded.dc_factors()[i].var_ids,
              graph.dc_factors()[i].var_ids);
  }
  EXPECT_EQ(loaded.query_vars(), graph.query_vars());
  EXPECT_EQ(loaded.evidence_vars(), graph.evidence_vars());
}

TEST(SnapshotCodec, PackedGraphIdsValidatedAgainstBounds) {
  FactorGraph graph;
  Variable v;
  v.cell = {0, 0};
  v.domain = {5};
  v.init_index = 0;
  v.prior_bias = {0.0};
  v.feat_begin = {0, 0};
  graph.AddVariable(v);
  DcFactor f;
  f.dc_index = 1;
  f.var_ids = {0};
  graph.AddDcFactor(f);
  BinaryWriter w;
  SerializeFactorGraph(graph, SectionCodec::kPacked, &w);

  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 4;  // Domain value id 5 is out of range.
    EXPECT_EQ(
        DeserializeFactorGraph(&r, SectionCodec::kPacked, &loaded, bounds)
            .code(),
        StatusCode::kParseError);
  }
  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 6;
    bounds.num_dcs = 1;  // dc_index 1 is out of range.
    EXPECT_EQ(
        DeserializeFactorGraph(&r, SectionCodec::kPacked, &loaded, bounds)
            .code(),
        StatusCode::kParseError);
  }
  {
    BinaryReader r(w.buffer());
    FactorGraph loaded;
    FactorGraphBounds bounds;
    bounds.dict_size = 6;
    bounds.num_dcs = 2;
    EXPECT_TRUE(
        DeserializeFactorGraph(&r, SectionCodec::kPacked, &loaded, bounds)
            .ok());
  }
}

TEST(SessionSnapshot, RawAndPackedCodecsRestoreIdentically) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Run().ok());
  std::string raw_path = f.path + ".raw";
  SnapshotSaveOptions raw;
  raw.codec = SectionCodec::kRaw;
  ASSERT_TRUE(session.Save(raw_path, raw).ok());
  ASSERT_TRUE(session.Save(f.path).ok());  // Packed default.

  SnapshotFixture fresh_raw;
  SnapshotFixture fresh_packed;
  auto from_raw = test_helpers::RestoreSessionOver(f.config, raw_path, &fresh_raw.dataset,
                                  fresh_raw.dcs);
  auto from_packed =
      test_helpers::RestoreSessionOver(f.config, f.path, &fresh_packed.dataset, fresh_packed.dcs);
  ASSERT_TRUE(from_raw.ok()) << from_raw.status();
  ASSERT_TRUE(from_packed.ok()) << from_packed.status();

  // Artifacts agree bit for bit across codecs.
  const PipelineContext& a = from_raw.value().context();
  const PipelineContext& b = from_packed.value().context();
  ASSERT_EQ(a.graph.num_variables(), b.graph.num_variables());
  for (size_t i = 0; i < a.graph.num_variables(); ++i) {
    const Variable& va = a.graph.variable(static_cast<int>(i));
    const Variable& vb = b.graph.variable(static_cast<int>(i));
    ASSERT_EQ(va.features.size(), vb.features.size());
    for (size_t k = 0; k < va.features.size(); ++k) {
      ASSERT_EQ(va.features[k].weight_key, vb.features[k].weight_key);
      ASSERT_EQ(va.features[k].activation, vb.features[k].activation);
    }
  }
  ASSERT_EQ(a.marginals.probs(), b.marginals.probs());
  ASSERT_EQ(a.report.repairs.size(), b.report.repairs.size());
  std::remove(raw_path.c_str());
}

// The format's back-compat contract, executable: a v1 snapshot written by
// the PR 2 code (checked into tests/data/) must keep restoring — and
// resuming bit-identically — under every later format revision.
TEST(SessionSnapshot, GoldenV1SnapshotRestoresBitIdentically) {
  std::string golden =
      std::string(HOLOCLEAN_TEST_DATA_DIR) + "/golden_v1.snapshot";
  SnapshotFixture f;
  auto restored = test_helpers::RestoreSessionOver(f.config, golden, &f.dataset, f.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kLearn));
  EXPECT_FALSE(resumed.StageIsValid(StageId::kInfer));
  auto finished = resumed.Run();
  ASSERT_TRUE(finished.ok());

  // Reference: the same pipeline run entirely in-process today.
  SnapshotFixture ref;
  auto ref_session = test_helpers::OpenSessionOver(ref.config, &ref.dataset, ref.dcs);
  ASSERT_TRUE(ref_session.ok());
  auto ref_report = ref_session.value().Run();
  ASSERT_TRUE(ref_report.ok());

  const Report& a = ref_report.value();
  const Report& b = finished.value();
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  const auto& ma = ref_session.value().context().marginals.probs();
  const auto& mb = resumed.context().marginals.probs();
  ASSERT_EQ(ma, mb);
}

// v2 snapshots stored the materialized violation pair list in their detect
// section. One written by that format's last writer (checked into
// tests/data/, saved after learn) must restore — the list parsed and
// dropped, the violation set re-detected — and resume bit-identically.
TEST(SessionSnapshot, GoldenV2SnapshotRestoresBitIdentically) {
  std::string golden =
      std::string(HOLOCLEAN_TEST_DATA_DIR) + "/golden_v2.snapshot";
  {
    std::ifstream in(golden, std::ios::binary);
    char header[8] = {};
    in.read(header, sizeof(header));
    ASSERT_EQ(static_cast<uint32_t>(header[4]), kSnapshotFormatV2);
  }
  SnapshotFixture f;
  auto restored =
      test_helpers::RestoreSessionOver(f.config, golden, &f.dataset, f.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  EXPECT_TRUE(resumed.StageIsValid(StageId::kLearn));
  EXPECT_FALSE(resumed.StageIsValid(StageId::kInfer));
  auto finished = resumed.Run();
  ASSERT_TRUE(finished.ok()) << finished.status();

  // Reference: a fresh clean of the same inputs.
  SnapshotFixture ref;
  auto ref_session =
      test_helpers::OpenSessionOver(ref.config, &ref.dataset, ref.dcs);
  ASSERT_TRUE(ref_session.ok());
  auto ref_report = ref_session.value().Run();
  ASSERT_TRUE(ref_report.ok());

  const PipelineContext& a = ref_session.value().context();
  const PipelineContext& b = resumed.context();
  EXPECT_TRUE(a.violations == b.violations);
  EXPECT_EQ(a.noisy.cells(), b.noisy.cells());
  ASSERT_EQ(ref_report.value().repairs.size(), finished.value().repairs.size());
  for (size_t i = 0; i < finished.value().repairs.size(); ++i) {
    const Repair& x = ref_report.value().repairs[i];
    const Repair& y = finished.value().repairs[i];
    EXPECT_EQ(x.cell, y.cell);
    EXPECT_EQ(x.new_value, y.new_value);
    EXPECT_EQ(x.probability, y.probability);
  }
  EXPECT_EQ(a.marginals.probs(), b.marginals.probs());
}

TEST(SessionSnapshot, MmapRestoreMatchesEagerRestoreBitForBit) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotFixture eager_fixture;
  auto eager = test_helpers::RestoreSessionOver(f.config, f.path, &eager_fixture.dataset,
                               eager_fixture.dcs);
  ASSERT_TRUE(eager.ok()) << eager.status();

  SnapshotFixture lazy_fixture;
  SnapshotLoadOptions lazy;
  lazy.lazy_graph = true;
  auto mapped = test_helpers::RestoreSessionOver(f.config, f.path, &lazy_fixture.dataset,
                                lazy_fixture.dcs, nullptr, nullptr, nullptr,
                                lazy);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  Session lazy_session = std::move(mapped).value();

  // The graph section is still on disk: nothing materialized yet, but the
  // stage prefix is already valid.
  EXPECT_NE(lazy_session.context().deferred_graph, nullptr);
  EXPECT_EQ(lazy_session.context().graph.num_variables(), 0u);
  EXPECT_TRUE(lazy_session.StageIsValid(StageId::kLearn));

  auto eager_report = eager.value().Run();
  auto lazy_report = lazy_session.Run();
  ASSERT_TRUE(eager_report.ok());
  ASSERT_TRUE(lazy_report.ok());
  // First stage access materialized and dropped the source.
  EXPECT_EQ(lazy_session.context().deferred_graph, nullptr);
  EXPECT_GT(lazy_session.context().graph.num_variables(), 0u);

  const Report& a = eager_report.value();
  const Report& b = lazy_report.value();
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  ASSERT_EQ(eager.value().context().marginals.probs(),
            lazy_session.context().marginals.probs());
}

TEST(SessionSnapshot, MmapRestoreOfFullRunNeverTouchesGraph) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  SnapshotFixture fresh;
  SnapshotLoadOptions lazy;
  lazy.lazy_graph = true;
  auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs, nullptr,
                                  nullptr, nullptr, lazy);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();

  // Every stage is cached: the cached-report lookup never needs the graph,
  // so the section stays unmaterialized — the whole point of lazy restore.
  auto cached = resumed.Run();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().repairs.size(), report.value().repairs.size());
  EXPECT_NE(resumed.context().deferred_graph, nullptr);

  // Re-running a suffix that needs the graph materializes it on demand.
  resumed.Invalidate(StageId::kRepair);
  auto rerun = resumed.Run();
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(resumed.context().deferred_graph, nullptr);
  EXPECT_EQ(rerun.value().repairs.size(), report.value().repairs.size());
}

TEST(SessionSnapshot, CorruptGraphSectionSurfacesAtFirstStageUnderMmap) {
  SnapshotFixture f;
  auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kLearn).ok());
  ASSERT_TRUE(session.Save(f.path).ok());

  // Locate the graph section via the directory (header: magic, u32
  // version, u64 dir_offset; entries: u32 id, u32 codec, u64 offset,
  // u64 size, u64 checksum) and flip one byte inside it.
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  BinaryReader header(std::string_view(bytes).substr(8, 8));
  uint64_t dir_offset = 0;
  ASSERT_TRUE(header.ReadU64(&dir_offset).ok());
  BinaryReader dir(std::string_view(bytes).substr(
      dir_offset, bytes.size() - dir_offset - 8));
  uint64_t count = 0;
  ASSERT_TRUE(dir.ReadU64(&count).ok());
  uint64_t graph_offset = 0;
  uint64_t graph_size = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    uint32_t codec = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(dir.ReadU32(&id).ok());
    ASSERT_TRUE(dir.ReadU32(&codec).ok());
    ASSERT_TRUE(dir.ReadU64(&offset).ok());
    ASSERT_TRUE(dir.ReadU64(&size).ok());
    ASSERT_TRUE(dir.ReadU64(&checksum).ok());
    if (id == 5) {  // kGraph
      graph_offset = offset;
      graph_size = size;
    }
  }
  ASSERT_GT(graph_size, 0u);
  size_t victim = graph_offset + graph_size / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x20);
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  // Eager restore checks every section up front and fails immediately.
  SnapshotFixture eager_fixture;
  auto eager = test_helpers::RestoreSessionOver(f.config, f.path, &eager_fixture.dataset,
                               eager_fixture.dcs);
  ASSERT_FALSE(eager.ok());
  EXPECT_EQ(eager.status().code(), StatusCode::kParseError);

  // Lazy restore succeeds — the graph section was never read — and the
  // corruption surfaces as a clean Status from the first stage that needs
  // the graph. Retrying reports the same error instead of running on an
  // empty graph.
  SnapshotFixture lazy_fixture;
  SnapshotLoadOptions lazy;
  lazy.lazy_graph = true;
  auto mapped = test_helpers::RestoreSessionOver(f.config, f.path, &lazy_fixture.dataset,
                                lazy_fixture.dcs, nullptr, nullptr, nullptr,
                                lazy);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  Session resumed = std::move(mapped).value();
  auto run = resumed.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kParseError);
  auto retry = resumed.Run();
  ASSERT_FALSE(retry.ok());
  EXPECT_EQ(retry.status().code(), StatusCode::kParseError);

  // Invalidating from compile discards the pending corrupt section (the
  // graph will be rebuilt from scratch), so the session recovers: saving
  // the shorter prefix must not touch the deferred bytes, and a fresh run
  // regrounds and completes.
  resumed.Invalidate(StageId::kCompile);
  std::string prefix_path = f.path + ".prefix";
  EXPECT_TRUE(resumed.Save(prefix_path, {}).ok());
  std::remove(prefix_path.c_str());
  auto rebuilt = resumed.Run();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(resumed.context().deferred_graph, nullptr);
}

TEST(SessionSnapshot, CorruptHeaderOffsetsFailCleanly) {
  SnapshotFixture f;

  // v2 header whose directory offset sits near 2^64: the bounds check must
  // fail cleanly instead of wrapping into an out-of-range substr.
  {
    BinaryWriter w;
    w.WriteBytes("HCSS");
    w.WriteU32(kSnapshotFormatVersion);
    w.WriteU64(0xFFFFFFFFFFFFFFF0ULL);
    w.WriteU64(0);  // Padding so the file passes the minimum-size check.
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << w.buffer();
    out.close();
    auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &f.dataset, f.dcs);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }

  // v1 payload carrying a huge row count with a valid checksum: the column
  // allocation must be bounded by the bytes present, not the claimed rows.
  {
    BinaryWriter payload;
    payload.WriteU64(ConfigFingerprint(f.config));
    payload.WriteU64(3);
    payload.WriteString("Name");
    payload.WriteString("Zip");
    payload.WriteString("City");
    payload.WriteU64(uint64_t{1} << 40);  // num_rows
    payload.WriteU64(0);                  // dcs fingerprint (never reached)
    payload.WriteU64(0);                  // extdata fingerprint
    payload.WriteU64(1);                  // dictionary: one entry
    payload.WriteString("a");
    BinaryWriter file;
    file.WriteBytes("HCSS");
    file.WriteU32(kSnapshotFormatV1);
    file.WriteU64(payload.buffer().size());
    file.WriteBytes(payload.buffer());
    file.WriteU64(HashBytes(payload.buffer()));
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << file.buffer();
    out.close();
    auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &f.dataset, f.dcs);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
}

TEST(SessionSnapshot, SavedPrefixesRestoreAtEveryStage) {
  for (int last = 0; last < kNumStages; ++last) {
    SnapshotFixture f;
    auto opened = test_helpers::OpenSessionOver(f.config, &f.dataset, f.dcs);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(
        opened.value().RunThrough(static_cast<StageId>(last)).ok());
    ASSERT_TRUE(opened.value().Save(f.path).ok());

    SnapshotFixture fresh;
    auto restored = test_helpers::RestoreSessionOver(f.config, f.path, &fresh.dataset, fresh.dcs);
    ASSERT_TRUE(restored.ok()) << "stage " << last << ": "
                               << restored.status();
    Session resumed = std::move(restored).value();
    EXPECT_TRUE(resumed.StageIsValid(static_cast<StageId>(last)));
    if (last + 1 < kNumStages) {
      EXPECT_FALSE(resumed.StageIsValid(static_cast<StageId>(last + 1)));
    }
    // The restored session completes the pipeline from where it left off.
    auto finished = resumed.Run();
    ASSERT_TRUE(finished.ok()) << "stage " << last;
    EXPECT_FALSE(finished.value().repairs.empty()) << "stage " << last;
  }
}

}  // namespace
}  // namespace holoclean
