// Differential tests for the compiled inference kernel: CompiledGraph
// scores, learned weights, marginals, and sampled repairs must be
// bit-identical to the FactorGraph interpreters in tests/oracle/ —
// including across the violation-table fallback boundary and for any
// thread count — and a snapshot of oracle-computed artifacts must be
// byte-identical to the production one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "holoclean/constraints/parser.h"
#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/io/session_snapshot.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/union_find.h"
#include "oracle/oracle.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

// ---------- Randomized unary graphs ----------

/// A random factor graph of unary-featured variables: random candidate
/// counts, biases, activations, and weight keys drawn from a small pool so
/// features collide across variables (the dense remap must dedupe them).
FactorGraph RandomUnaryGraph(uint64_t seed, int num_vars) {
  Rng rng(seed);
  std::vector<uint64_t> key_pool;
  for (int i = 0; i < 40; ++i) key_pool.push_back(rng.Next());
  FactorGraph graph;
  for (int v = 0; v < num_vars; ++v) {
    Variable var;
    var.cell = {static_cast<TupleId>(v), 0};
    var.is_evidence = (v % 3) != 0;
    size_t num_cand = 1 + rng.Below(5);
    var.init_index = static_cast<int>(rng.Below(num_cand));
    var.domain.resize(num_cand);
    for (size_t k = 0; k < num_cand; ++k) {
      var.domain[k] = static_cast<ValueId>(100 + k);
    }
    var.feat_begin.push_back(0);
    for (size_t k = 0; k < num_cand; ++k) {
      var.prior_bias.push_back(rng.Uniform() * 2.0 - 1.0);
      size_t num_feats = rng.Below(6);
      for (size_t i = 0; i < num_feats; ++i) {
        FeatureInstance f;
        f.weight_key = key_pool[rng.Below(key_pool.size())];
        f.activation = static_cast<float>(rng.Uniform() * 3.0);
        var.features.push_back(f);
      }
      var.feat_begin.push_back(static_cast<int32_t>(var.features.size()));
    }
    graph.AddVariable(std::move(var));
  }
  return graph;
}

WeightStore RandomWeights(uint64_t seed, const FactorGraph& graph) {
  Rng rng(seed);
  WeightStore weights;
  for (const Variable& var : graph.variables()) {
    for (const FeatureInstance& f : var.features) {
      if (rng.Chance(0.7)) {
        weights.Set(f.weight_key, rng.Uniform() * 4.0 - 2.0);
      }
    }
  }
  return weights;
}

TEST(CompiledGraph, DenseRemapIsSortedAndComplete) {
  FactorGraph graph = RandomUnaryGraph(1, 30);
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  const auto& keys = compiled.weight_keys();
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);  // Sorted, unique.
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(compiled.WeightIdOf(keys[i]), static_cast<int32_t>(i));
  }
  EXPECT_EQ(compiled.WeightIdOf(0xDEADBEEFDEADBEEFULL), -1);
  // Every feature key of the graph is mapped.
  for (const Variable& var : graph.variables()) {
    for (const FeatureInstance& f : var.features) {
      EXPECT_GE(compiled.WeightIdOf(f.weight_key), 0);
    }
  }
  EXPECT_EQ(compiled.num_variables(), graph.num_variables());
}

TEST(CompiledGraph, UnaryScoresBitIdenticalOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FactorGraph graph = RandomUnaryGraph(seed, 40);
    WeightStore weights = RandomWeights(seed ^ 0x9E37ULL, graph);
    Table table(Schema({"A"}), std::make_shared<Dictionary>());
    std::vector<DenialConstraint> dcs;
    CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);
    std::vector<double> dense = compiled.GatherWeights(weights);
    ASSERT_EQ(dense.size(), compiled.num_weights());
    for (size_t v = 0; v < graph.num_variables(); ++v) {
      const Variable& var = graph.variable(static_cast<int>(v));
      ASSERT_EQ(compiled.NumCandidates(static_cast<int>(v)),
                static_cast<int32_t>(var.NumCandidates()));
      for (size_t k = 0; k < var.NumCandidates(); ++k) {
        double ref = oracle::UnaryScore(graph, static_cast<int>(v),
                                        static_cast<int>(k), weights);
        double comp = compiled.UnaryScore(static_cast<int>(v),
                                          static_cast<int>(k), dense);
        EXPECT_EQ(ref, comp) << "seed " << seed << " var " << v
                             << " candidate " << k;
      }
    }
  }
}

TEST(CompiledGraph, LearnedWeightsAndNllBitIdentical) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    FactorGraph graph = RandomUnaryGraph(seed, 60);
    Table table(Schema({"A"}), std::make_shared<Dictionary>());
    std::vector<DenialConstraint> dcs;
    CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

    LearnerOptions options;
    options.epochs = 7;
    options.seed = seed * 31;
    SgdLearner learner(options);

    WeightStore ref = RandomWeights(seed ^ 0x1234ULL, graph);
    WeightStore comp = ref;  // Same starting parameters.
    std::vector<double> ref_nll =
        oracle::TrainSgd(graph, graph.evidence_vars(), options, &ref);
    std::vector<double> comp_nll = learner.Train(compiled, &comp);
    ASSERT_FALSE(ref_nll.empty());
    EXPECT_EQ(ref_nll, comp_nll);
    // The stores match entry for entry — same keys present (the lazy
    // create-on-touch semantics), same exact values.
    EXPECT_EQ(ref.raw(), comp.raw());
  }
}

TEST(CompiledGraph, UntouchedWeightsStayAbsentFromTheStore) {
  // A single-candidate evidence variable: softmax prob is exactly 1.0, the
  // gradient coefficient is exactly 0, and the reference loop never
  // creates the weight. The compiled scatter must preserve that.
  FactorGraph graph;
  Variable var;
  var.cell = {0, 0};
  var.is_evidence = true;
  var.init_index = 0;
  var.domain = {100};
  var.prior_bias = {0.0};
  var.feat_begin = {0, 1};
  var.features = {{/*weight_key=*/77, 1.0f}};
  graph.AddVariable(std::move(var));

  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  WeightStore ref, comp;
  oracle::TrainSgd(graph, graph.evidence_vars(), LearnerOptions{}, &ref);
  SgdLearner(LearnerOptions{}).Train(compiled, &comp);
  EXPECT_EQ(ref.raw().count(77), 0u);
  EXPECT_EQ(comp.raw().count(77), 0u);
  EXPECT_EQ(ref.raw().size(), comp.raw().size());
}

TEST(CompiledGraph, ExactMarginalsBitIdentical) {
  FactorGraph graph = RandomUnaryGraph(21, 50);
  WeightStore weights = RandomWeights(22, graph);
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  std::vector<DenialConstraint> dcs;
  CompiledGraph compiled = CompiledGraph::Build(graph, table, dcs);

  Marginals ref = oracle::ExactIndependentMarginals(graph, weights);
  Marginals comp = ExactIndependentMarginals(compiled, weights);
  ASSERT_EQ(ref.probs().size(), comp.probs().size());
  for (size_t v = 0; v < ref.probs().size(); ++v) {
    ASSERT_EQ(ref.probs()[v].size(), comp.probs()[v].size());
    for (size_t k = 0; k < ref.probs()[v].size(); ++k) {
      EXPECT_EQ(ref.probs()[v][k], comp.probs()[v][k])
          << "var " << v << " candidate " << k;
    }
  }
}

// ---------- End-to-end with DC factors ----------

HoloCleanConfig FactorConfig() {
  HoloCleanConfig config;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 4;
  config.gibbs_samples = 12;
  config.epochs = 5;
  return config;
}

HoloCleanConfig KernelConfig(size_t dc_table_cap, size_t num_threads) {
  HoloCleanConfig c = FactorConfig();
  c.dc_table_cap = dc_table_cap;
  c.num_threads = num_threads;
  return c;
}

GeneratedData Hospital(size_t rows, uint64_t seed = 101) {
  HospitalOptions options;
  options.num_rows = rows;
  options.seed = seed;
  return MakeHospital(options);
}

/// One full pipeline run over its own data instance. Owns the dataset the
/// session borrows, so sessions stay inspectable after the run.
struct RunInstance {
  RunInstance(const HoloCleanConfig& config, GeneratedData generated)
      : data(std::move(generated)) {
    auto opened = OpenStandaloneSession(
        CleaningInputs::Borrowed(&data.dataset, &data.dcs), {config});
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (!opened.ok()) return;
    session.emplace(std::move(opened).value());
    auto run = session->Run();
    EXPECT_TRUE(run.ok()) << run.status();
    if (run.ok()) report = run.value();
  }
  explicit RunInstance(const HoloCleanConfig& config)
      : RunInstance(config, Hospital(150)) {}

  GeneratedData data;
  std::optional<Session> session;
  Report report;
};

void ExpectReportsBitIdentical(const Report& a, const Report& b) {
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].old_value, b.repairs[i].old_value);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t i = 0; i < a.posteriors.size(); ++i) {
    EXPECT_EQ(a.posteriors[i].cell, b.posteriors[i].cell);
    EXPECT_EQ(a.posteriors[i].map_value, b.posteriors[i].map_value);
    EXPECT_EQ(a.posteriors[i].map_prob, b.posteriors[i].map_prob);
  }
}

TEST(CompiledKernel, GibbsRepairsBitIdenticalToReference) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    RunInstance run(KernelConfig(4096, /*threads=*/1), Hospital(150, seed));
    ASSERT_TRUE(run.session.has_value());
    EXPECT_GT(run.report.stats.num_dc_factors, 0u);
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << "hospital seed " << seed;
  }
  // The Food profile: many distinct values, so larger candidate sets and
  // violation tables.
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunInstance run(KernelConfig(4096, /*threads=*/2),
                    MakeFood({300, 0.06, seed}));
    ASSERT_TRUE(run.session.has_value());
    EXPECT_GT(run.report.stats.num_dc_factors, 0u);
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << "food seed " << seed;
  }
}

TEST(CompiledKernel, BitIdenticalForAnyThreadCount) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    RunInstance run(KernelConfig(4096, threads));
    ASSERT_TRUE(run.session.has_value());
    EXPECT_EQ(oracle::DiffPipeline(run.session->context()), "")
        << threads << " threads";
  }
}

/// The most factor slots (sampled variables plus their factor adjacency
/// entries) any one component's sweep holds, recounted from the graph.
size_t LargestSweepSlots(const FactorGraph& graph,
                         const CompiledGraph& compiled) {
  UnionFind uf(graph.num_variables());
  for (const DcFactor& factor : graph.dc_factors()) {
    for (size_t i = 1; i < factor.var_ids.size(); ++i) {
      uf.Union(static_cast<size_t>(factor.var_ids[0]),
               static_cast<size_t>(factor.var_ids[i]));
    }
  }
  std::unordered_map<size_t, size_t> slots;
  size_t largest = 0;
  for (int32_t v : graph.query_vars()) {
    if (compiled.NumCandidates(v) < 2) continue;
    size_t& s = slots[uf.Find(static_cast<size_t>(v))];
    s += 1 + static_cast<size_t>(compiled.FovEnd(v) - compiled.FovBegin(v));
    largest = std::max(largest, s);
  }
  return largest;
}

GeneratedData SpreadFood() { return MakeFood({1500, 0.06, 5}); }

TEST(CompiledKernel, SpreadSweepsBitIdenticalToReference) {
  // A component this large spreads its sweeps over the pool; the oracle
  // runs every chain sequentially, so any ordering slip shows as a diff.
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    RunInstance run(KernelConfig(4096, threads), SpreadFood());
    ASSERT_TRUE(run.session.has_value());
    const PipelineContext& ctx = run.session->context();
    ASSERT_NE(ctx.compiled, nullptr);
    EXPECT_GE(LargestSweepSlots(ctx.graph, *ctx.compiled),
              GibbsSampler::kSpreadMinSlots);
    EXPECT_EQ(oracle::DiffPipeline(ctx), "") << threads << " threads";
  }

  // Two jobs at once on a shared 4-worker pool: each spread sweep runs
  // nested on a pool worker, its helpers queued behind the other job's.
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  std::vector<std::future<Result<Report>>> jobs;
  for (const char* key : {"spread-a", "spread-b"}) {
    auto data = std::make_shared<GeneratedData>(SpreadFood());
    SessionOptions options;
    options.config = FactorConfig();
    options.cache_key = key;
    jobs.push_back(engine.Submit(
        CleaningInputs::Owned(
            std::shared_ptr<Dataset>(data, &data->dataset),
            std::shared_ptr<const std::vector<DenialConstraint>>(data,
                                                                 &data->dcs)),
        options));
  }
  for (auto& job : jobs) {
    Result<Report> report = job.get();
    ASSERT_TRUE(report.ok()) << report.status();
  }
  for (const char* key : {"spread-a", "spread-b"}) {
    std::optional<Session> session = engine.TakeCachedSession(key);
    ASSERT_TRUE(session.has_value()) << key;
    EXPECT_EQ(oracle::DiffPipeline(session->context()), "") << key;
  }
}

TEST(CompiledKernel, FallbackBoundaryBitIdentical) {
  // Cap 0: every factor falls back to the evaluator path.
  RunInstance all_fallback(KernelConfig(0, 1));
  ASSERT_TRUE(all_fallback.session.has_value());
  EXPECT_EQ(oracle::DiffPipeline(all_fallback.session->context()), "");
  const auto& fb = all_fallback.session->context().compiled;
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fb->stats().num_tabled_factors, 0u);
  EXPECT_GT(fb->stats().num_fallback_factors, 0u);

  // A small cap right at the boundary: some factors tabled, some fall
  // back — both paths must agree inside one sampler run.
  RunInstance mixed(KernelConfig(16, 1));
  ASSERT_TRUE(mixed.session.has_value());
  EXPECT_EQ(oracle::DiffPipeline(mixed.session->context()), "");
  const auto& mx = mixed.session->context().compiled;
  ASSERT_NE(mx, nullptr);
  EXPECT_GT(mx->stats().num_tabled_factors, 0u);
  EXPECT_GT(mx->stats().num_fallback_factors, 0u);

  // Default cap.
  RunInstance tabled(KernelConfig(4096, 1));
  ASSERT_TRUE(tabled.session.has_value());
  EXPECT_EQ(oracle::DiffPipeline(tabled.session->context()), "");
  const auto& tb = tabled.session->context().compiled;
  ASSERT_NE(tb, nullptr);
  EXPECT_GT(tb->stats().table_entries, 0u);
  ExpectReportsBitIdentical(all_fallback.report, tabled.report);
  ExpectReportsBitIdentical(mixed.report, tabled.report);
}

/// Enumerates every candidate combination of every tabled factor and
/// checks the table verdict against `evaluator`. Returns the number of
/// combinations checked; `differs_at_08` counts the combinations whose
/// verdict under a default-threshold evaluator differs from `evaluator`'s.
size_t CheckViolationTables(const FactorGraph& graph,
                            const CompiledGraph& compiled, const Table& table,
                            const std::vector<DenialConstraint>& dcs,
                            const DcEvaluator& evaluator,
                            size_t* differs_at_08 = nullptr) {
  DcEvaluator default_evaluator(&table, 0.8);
  std::vector<CellOverride> overrides;
  size_t checked = 0;
  for (size_t fid = 0; fid < graph.dc_factors().size(); ++fid) {
    if (!compiled.HasViolationTable(static_cast<int>(fid))) continue;
    const DcFactor& factor = graph.dc_factors()[fid];
    // Enumerate every candidate combination through a fake assignment and
    // compare the table verdict with a direct evaluator call.
    std::vector<int> assignment(graph.num_variables(), 0);
    std::vector<size_t> combo(factor.var_ids.size(), 0);
    bool done = factor.var_ids.empty();
    while (!done) {
      overrides.clear();
      for (size_t i = 0; i < factor.var_ids.size(); ++i) {
        const Variable& var = graph.variable(factor.var_ids[i]);
        assignment[static_cast<size_t>(factor.var_ids[i])] =
            static_cast<int>(combo[i]);
        overrides.push_back({var.cell, var.domain[combo[i]]});
      }
      const DenialConstraint& dc = dcs[static_cast<size_t>(factor.dc_index)];
      bool expected =
          evaluator.ViolatesWith(dc, factor.t1, factor.t2, overrides);
      if (differs_at_08 != nullptr &&
          default_evaluator.ViolatesWith(dc, factor.t1, factor.t2,
                                         overrides) != expected) {
        ++*differs_at_08;
      }
      // Score through the first factor variable; the others read from
      // `assignment`.
      bool got = compiled.TableViolated(
          static_cast<int>(fid), factor.var_ids[0],
          static_cast<int>(combo[0]), assignment);
      EXPECT_EQ(expected, got) << "factor " << fid;
      if (expected != got) return checked;
      ++checked;
      for (size_t i = factor.var_ids.size(); i-- > 0;) {
        const Variable& var = graph.variable(factor.var_ids[i]);
        if (++combo[i] < var.NumCandidates()) break;
        combo[i] = 0;
        if (i == 0) done = true;
      }
    }
  }
  return checked;
}

TEST(CompiledKernel, ViolationTablesMatchEvaluatorExhaustively) {
  GeneratedData fresh = Hospital(150);
  auto opened = OpenStandaloneSession(CleaningInputs::Borrowed(&fresh.dataset, &fresh.dcs), {FactorConfig()});
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());

  const FactorGraph& graph = session.context().graph;
  const Table& table = fresh.dataset.dirty();
  CompiledGraph compiled = CompiledGraph::Build(graph, table, fresh.dcs);
  ASSERT_GT(compiled.stats().num_tabled_factors, 0u);
  EXPECT_GT(CheckViolationTables(graph, compiled, table, fresh.dcs,
                                 DcEvaluator(&table)),
            0u);
}

TEST(CompiledKernel, ViolationTablesUseConfiguredSimThreshold) {
  // A similarity DC under DC factors: "Chicago" ~ "Cicago" is similar at
  // the default 0.8 (6/7) but not at 0.95, so the session's violation
  // tables must be computed at the configured threshold — the one
  // detection and grounding use.
  Table dirty(Schema({"Zip", "City"}), std::make_shared<Dictionary>());
  for (int i = 0; i < 4; ++i) dirty.AppendRow({"60608", "Chicago"});
  dirty.AppendRow({"60608", "Cicago"});
  for (int i = 0; i < 4; ++i) dirty.AppendRow({"60201", "Evanston"});
  dirty.AppendRow({"60201", "Evanstn"});
  Dataset dataset(std::move(dirty));
  auto dcs = ParseDenialConstraints(
      "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)\n"
      "t1&t2&SIM(t1.City,t2.City)&IQ(t1.City,t2.City)&EQ(t1.Zip,t2.Zip)\n",
      dataset.dirty().schema());
  ASSERT_TRUE(dcs.ok());

  HoloCleanConfig config;
  config.dc_mode = DcMode::kFactors;
  config.sim_threshold = 0.95;
  config.gibbs_burn_in = 2;
  config.gibbs_samples = 4;
  auto opened = test_helpers::OpenSessionOver(config, &dataset, dcs.value());
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Run().ok());

  const PipelineContext& ctx = session.context();
  ASSERT_NE(ctx.compiled, nullptr);
  EXPECT_EQ(ctx.compiled->sim_threshold(), 0.95);
  ASSERT_GT(ctx.compiled->stats().num_tabled_factors, 0u);
  const Table& table = dataset.dirty();
  size_t differs_at_08 = 0;
  EXPECT_GT(CheckViolationTables(ctx.graph, *ctx.compiled, table, dcs.value(),
                                 DcEvaluator(&table, 0.95), &differs_at_08),
            0u);
  // The data is chosen so the threshold matters to some table entry.
  EXPECT_GT(differs_at_08, 0u);
  EXPECT_EQ(oracle::DiffPipeline(ctx), "");
}

// ---------- Snapshot compatibility ----------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SnapshotPaths {
  SnapshotPaths() {
    std::string base =
        testing::TempDir() + "holoclean_compiled_test_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    ref_path = base + "_ref.snapshot";
    comp_path = base + "_comp.snapshot";
  }
  ~SnapshotPaths() {
    std::remove(ref_path.c_str());
    std::remove(comp_path.c_str());
  }
  std::string ref_path;
  std::string comp_path;
};

/// A session whose learned weights, marginals, and repairs are replaced by
/// the interpreters' serializes to the same bytes as the production run:
/// the dense↔sparse weight conversion must not perturb the persisted
/// sparse view. The snapshot of the oracle artifacts also restores and
/// resumes bit-identically.
TEST(CompiledKernel, SnapshotV2PackedBytesIdenticalAcrossKernels) {
  SnapshotPaths paths;
  HoloCleanConfig config;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 2;
  config.gibbs_samples = 6;
  config.epochs = 3;
  SnapshotSaveOptions save;
  save.codec = SectionCodec::kPacked;

  GeneratedData comp_data = Hospital(120);
  auto comp_session = OpenStandaloneSession(
      CleaningInputs::Borrowed(&comp_data.dataset, &comp_data.dcs), {config});
  ASSERT_TRUE(comp_session.ok());
  ASSERT_TRUE(comp_session.value().Run().ok());
  ASSERT_TRUE(comp_session.value().Save(paths.comp_path, save).ok());

  GeneratedData ref_data = Hospital(120);
  auto ref_session = OpenStandaloneSession(
      CleaningInputs::Borrowed(&ref_data.dataset, &ref_data.dcs), {config});
  ASSERT_TRUE(ref_session.ok());
  ASSERT_TRUE(ref_session.value().Run().ok());
  PipelineContext& ctx = ref_session.value().context();
  ctx.weights = oracle::LearnWeights(ctx);
  ctx.marginals = oracle::InferMarginals(ctx, ctx.weights);
  oracle::ExtractRepairs(ctx, ctx.marginals, &ctx.report.repairs,
                         &ctx.report.posteriors);
  ASSERT_TRUE(ref_session.value().Save(paths.ref_path, save).ok());

  std::string ref_bytes = ReadFileBytes(paths.ref_path);
  std::string comp_bytes = ReadFileBytes(paths.comp_path);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, comp_bytes);

  // The oracle-written snapshot restores into a production session and
  // re-runs from infer bit-identically.
  GeneratedData fresh = Hospital(120);
  auto restored = test_helpers::RestoreSessionOver(config, paths.ref_path,
                                                   &fresh.dataset, fresh.dcs);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Session resumed = std::move(restored).value();
  resumed.Invalidate(StageId::kInfer);
  auto resumed_report = resumed.Run();
  ASSERT_TRUE(resumed_report.ok());
  ExpectReportsBitIdentical(comp_session.value().report(),
                            resumed_report.value());
}

// ---------- Parallel build ----------

TEST(CompiledGraph, ParallelBuildByteIdenticalToSequential) {
  // The pool-parallel arena fill and violation-table precompute must
  // produce exactly the bytes the sequential build produces, for any pool
  // size — including across the tabled/fallback boundary.
  HospitalOptions options;
  options.num_rows = 150;
  GeneratedData fresh = MakeHospital(options);
  auto opened = OpenStandaloneSession(CleaningInputs::Borrowed(&fresh.dataset, &fresh.dcs), {FactorConfig()});
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());
  const FactorGraph& graph = session.context().graph;
  const Table& table = fresh.dataset.dirty();

  CompiledGraphOptions copts;
  copts.violation_table_cap = 512;  // Keep some factors on the fallback.
  CompiledGraph sequential =
      CompiledGraph::Build(graph, table, fresh.dcs, copts, nullptr);
  ASSERT_GT(sequential.stats().num_tabled_factors, 0u);

  for (size_t threads : {size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    CompiledGraph parallel =
        CompiledGraph::Build(graph, table, fresh.dcs, copts, &pool);

    EXPECT_EQ(parallel.weight_keys(), sequential.weight_keys());
    EXPECT_EQ(parallel.feat_weight(), sequential.feat_weight());
    EXPECT_EQ(parallel.feat_act(), sequential.feat_act());
    EXPECT_EQ(parallel.fov(), sequential.fov());
    EXPECT_EQ(parallel.factor_vars(), sequential.factor_vars());
    EXPECT_EQ(parallel.stats().num_tabled_factors,
              sequential.stats().num_tabled_factors);
    EXPECT_EQ(parallel.stats().num_fallback_factors,
              sequential.stats().num_fallback_factors);
    EXPECT_EQ(parallel.stats().table_entries,
              sequential.stats().table_entries);

    ASSERT_EQ(parallel.num_variables(), sequential.num_variables());
    for (size_t v = 0; v < sequential.num_variables(); ++v) {
      int var = static_cast<int>(v);
      ASSERT_EQ(parallel.NumCandidates(var), sequential.NumCandidates(var));
      EXPECT_EQ(parallel.IsEvidence(var), sequential.IsEvidence(var));
      EXPECT_EQ(parallel.InitIndex(var), sequential.InitIndex(var));
      EXPECT_EQ(parallel.FovBegin(var), sequential.FovBegin(var));
      for (int k = 0; k < sequential.NumCandidates(var); ++k) {
        EXPECT_EQ(parallel.FeatBegin(var, k), sequential.FeatBegin(var, k));
        EXPECT_EQ(parallel.FeatEnd(var, k), sequential.FeatEnd(var, k));
      }
    }

    ASSERT_EQ(parallel.num_factors(), sequential.num_factors());
    std::vector<double> zero(sequential.num_weights(), 0.0);
    for (size_t f = 0; f < sequential.num_factors(); ++f) {
      int fid = static_cast<int>(f);
      EXPECT_DOUBLE_EQ(parallel.FactorWeight(fid),
                       sequential.FactorWeight(fid));
      EXPECT_EQ(parallel.FactorDcIndex(fid), sequential.FactorDcIndex(fid));
      EXPECT_EQ(parallel.FactorT1(fid), sequential.FactorT1(fid));
      EXPECT_EQ(parallel.FactorT2(fid), sequential.FactorT2(fid));
      ASSERT_EQ(parallel.HasViolationTable(fid),
                sequential.HasViolationTable(fid));
      if (!sequential.HasViolationTable(fid)) continue;
      size_t entries = 1;
      for (int32_t i = sequential.FactorVarBegin(fid);
           i < sequential.FactorVarEnd(fid); ++i) {
        entries *= static_cast<size_t>(sequential.NumCandidates(
            sequential.factor_vars()[static_cast<size_t>(i)]));
      }
      EXPECT_EQ(std::memcmp(parallel.ViolationTableEntry(fid, 0),
                            sequential.ViolationTableEntry(fid, 0), entries),
                0);
    }
  }
}

}  // namespace
}  // namespace holoclean
