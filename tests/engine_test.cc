// Tests for the Engine API: owned input bundles, concurrent batch runs
// over the shared pool (bit-identical to sequential standalone sessions
// for any pool size), per-job failure isolation, the restore-into-pool
// path, the bounded session LRU, the shared dictionary arena, and the
// session move guarantees under the shared-pool model.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "holoclean/core/engine.h"
#include "holoclean/data/food.h"

#include "session_helpers.h"

namespace holoclean {
namespace {

HoloCleanConfig TestConfig() {
  HoloCleanConfig config;
  config.tau = 0.5;
  config.dc_mode = DcMode::kBoth;
  config.partitioning = true;
  config.gibbs_burn_in = 5;
  config.gibbs_samples = 20;
  return config;
}

std::shared_ptr<GeneratedData> MakeVariant(size_t i, size_t rows = 500) {
  FoodOptions options;
  options.num_rows = rows;
  options.error_rate = 0.05 + 0.01 * static_cast<double>(i);
  options.seed = 7100 + i;
  return std::make_shared<GeneratedData>(MakeFood(options));
}

CleaningInputs InputsOf(const std::shared_ptr<GeneratedData>& data) {
  return CleaningInputs::Owned(
      std::shared_ptr<Dataset>(data, &data->dataset),
      std::shared_ptr<const std::vector<DenialConstraint>>(data,
                                                           &data->dcs));
}

void ExpectReportsEqual(const Report& a, const Report& b) {
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].old_value, b.repairs[i].old_value);
    EXPECT_EQ(a.repairs[i].new_value, b.repairs[i].new_value);
    EXPECT_DOUBLE_EQ(a.repairs[i].probability, b.repairs[i].probability);
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t i = 0; i < a.posteriors.size(); ++i) {
    EXPECT_EQ(a.posteriors[i].cell, b.posteriors[i].cell);
    EXPECT_EQ(a.posteriors[i].map_value, b.posteriors[i].map_value);
    EXPECT_DOUBLE_EQ(a.posteriors[i].map_prob, b.posteriors[i].map_prob);
  }
  EXPECT_EQ(a.stats.num_noisy_cells, b.stats.num_noisy_cells);
  EXPECT_EQ(a.stats.num_query_vars, b.stats.num_query_vars);
  EXPECT_EQ(a.stats.num_grounded_factors, b.stats.num_grounded_factors);
}

TEST(EngineBatch, BitIdenticalToSequentialStandaloneRunsAnyPoolSize) {
  constexpr size_t kJobs = 4;
  HoloCleanConfig config = TestConfig();

  // The sequential baseline: standalone sessions with private pools, one
  // per job, using the batch's derived per-job seeds.
  std::vector<Report> baseline;
  std::vector<WeightStore> baseline_weights;
  for (size_t i = 0; i < kJobs; ++i) {
    auto data = MakeVariant(i);
    HoloCleanConfig job_config = config;
    job_config.seed = Engine::PerJobSeed(config.seed, i);
    auto session = test_helpers::OpenSessionOver(job_config, &data->dataset,
                                                 data->dcs);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto report = session.value().Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    baseline.push_back(std::move(report).value());
    baseline_weights.push_back(session.value().weights());
  }

  for (size_t pool_size : {size_t{1}, size_t{2}, size_t{4}}) {
    EngineOptions options;
    options.num_threads = pool_size;
    Engine engine(options);
    std::vector<std::shared_ptr<GeneratedData>> fleet;
    std::vector<CleaningInputs> inputs;
    for (size_t i = 0; i < kJobs; ++i) {
      fleet.push_back(MakeVariant(i));
      inputs.push_back(InputsOf(fleet.back()));
    }
    SessionOptions common;
    common.config = config;
    auto futures = engine.SubmitBatch(std::move(inputs), common);
    ASSERT_EQ(futures.size(), kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
      Result<Report> result = futures[i].get();
      ASSERT_TRUE(result.ok())
          << "pool " << pool_size << ": " << result.status().ToString();
      ExpectReportsEqual(result.value(), baseline[i]);
    }
    // Sessions the engine opens on its shared pool learn the standalone
    // sessions' weights bit for bit.
    for (size_t i = 0; i < kJobs; ++i) {
      SessionOptions job = common;
      job.config.seed = Engine::PerJobSeed(config.seed, i);
      auto session = engine.OpenSession(InputsOf(fleet[i]), job);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      ASSERT_TRUE(session.value().uses_shared_pool());
      ASSERT_TRUE(session.value().Run().ok());
      EXPECT_GT(session.value().weights().size(), 0u);
      EXPECT_EQ(session.value().weights().raw(), baseline_weights[i].raw())
          << "pool " << pool_size << " job " << i;
    }
  }
}

TEST(EngineBatch, FailingJobDoesNotPoisonSiblings) {
  Engine engine;
  auto good = MakeVariant(0);
  std::vector<Engine::BatchJob> jobs(3);
  jobs[0].inputs = InputsOf(good);
  jobs[0].options.config = TestConfig();
  // Job 1: no dataset at all.
  jobs[1].options.config = TestConfig();
  // Job 2: a dataset but a null constraint set.
  auto other = MakeVariant(1);
  jobs[2].inputs =
      CleaningInputs::Owned(std::shared_ptr<Dataset>(other, &other->dataset),
                            nullptr);
  jobs[2].options.config = TestConfig();

  auto futures = engine.SubmitBatch(std::move(jobs));
  Result<Report> ok = futures[0].get();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok.value().repairs.empty());

  Result<Report> no_dataset = futures[1].get();
  ASSERT_FALSE(no_dataset.ok());
  EXPECT_EQ(no_dataset.status().code(), StatusCode::kInvalidArgument);

  Result<Report> no_dcs = futures[2].get();
  ASSERT_FALSE(no_dcs.ok());
  EXPECT_EQ(no_dcs.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineSession, OwnedInputsOutliveTheCallersHandles) {
  Engine engine;
  Result<Session> opened = [&engine]() {
    auto data = MakeVariant(0);
    SessionOptions session_options;
    session_options.config = TestConfig();
    // Only the bundle keeps `data` alive once this scope ends.
    return engine.OpenSession(InputsOf(data), session_options);
  }();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session session = std::move(opened).value();
  auto report = session.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().repairs.empty());
  EXPECT_GT(session.weights().size(), 0u);
}

TEST(EngineSession, RestoreIntoPoolMatchesFacadeRestore) {
  auto data = MakeVariant(0);
  HoloCleanConfig config = TestConfig();

  // Save a snapshot at full completion from a standalone session.
  std::string path = ::testing::TempDir() + "engine_restore.snapshot";
  Report original;
  {
    auto opened = test_helpers::OpenSessionOver(config, &data->dataset, data->dcs);
    ASSERT_TRUE(opened.ok());
    Session session = std::move(opened).value();
    auto report = session.Run();
    ASSERT_TRUE(report.ok());
    original = std::move(report).value();
    ASSERT_TRUE(session.Save(path).ok());
  }

  // Facade restore (private pool).
  Report facade_report;
  {
    auto restored = test_helpers::RestoreSessionOver(config, path, &data->dataset, data->dcs);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Session session = std::move(restored).value();
    ASSERT_TRUE(session.StageIsValid(StageId::kRepair));
    session.Invalidate(StageId::kInfer);
    auto rerun = session.Run();
    ASSERT_TRUE(rerun.ok());
    facade_report = std::move(rerun).value();
  }

  // Engine restore into the shared pool.
  {
    Engine engine;
    SessionOptions options;
    options.config = config;
    options.snapshot_path = path;
    auto restored = engine.OpenSession(InputsOf(data), options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Session session = std::move(restored).value();
    EXPECT_TRUE(session.uses_shared_pool());
    ASSERT_TRUE(session.StageIsValid(StageId::kRepair));
    EXPECT_EQ(session.context().ground_runs, 1u);
    session.Invalidate(StageId::kInfer);
    auto rerun = session.Run();
    ASSERT_TRUE(rerun.ok());
    // Rerun-from-infer against the restored graph: no re-grounding, and
    // bit-identical repairs on both pool models.
    EXPECT_EQ(session.context().ground_runs, 1u);
    ExpectReportsEqual(rerun.value(), facade_report);
    ExpectReportsEqual(rerun.value(), original);
  }
}

TEST(EngineSessionCache, ServingRoundReusesParkedSessions) {
  EngineOptions options;
  options.session_cache_capacity = 2;
  Engine engine(options);
  auto data = MakeVariant(0);

  SessionOptions session_options;
  session_options.config = TestConfig();
  session_options.cache_key = "tenant-a";

  Result<Report> first = engine.Submit(InputsOf(data), session_options).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(engine.cached_sessions(), 1u);
  for (const StageTiming& t : first.value().stats.stage_timings) {
    EXPECT_FALSE(t.cached) << t.name;
  }

  Result<Report> second =
      engine.Submit(InputsOf(data), session_options).get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Every stage was still valid: the parked session served the report
  // from cache, bit-identically.
  for (const StageTiming& t : second.value().stats.stage_timings) {
    EXPECT_TRUE(t.cached) << t.name;
  }
  ExpectReportsEqual(first.value(), second.value());
  EXPECT_EQ(engine.cached_sessions(), 1u);
}

TEST(EngineSessionCache, BoundedLruEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.session_cache_capacity = 2;
  Engine engine(options);
  std::vector<std::shared_ptr<GeneratedData>> fleet;
  for (size_t i = 0; i < 3; ++i) {
    fleet.push_back(MakeVariant(i, 200));
    SessionOptions session_options;
    session_options.config = TestConfig();
    auto opened = engine.OpenSession(InputsOf(fleet[i]), session_options);
    ASSERT_TRUE(opened.ok());
    engine.CacheSession("key-" + std::to_string(i),
                        std::move(opened).value());
  }
  EXPECT_EQ(engine.cached_sessions(), 2u);
  EXPECT_FALSE(engine.HasCachedSession("key-0"));  // Evicted.
  EXPECT_TRUE(engine.HasCachedSession("key-1"));
  EXPECT_TRUE(engine.HasCachedSession("key-2"));
  EXPECT_TRUE(engine.TakeCachedSession("key-1").has_value());
  EXPECT_EQ(engine.cached_sessions(), 1u);
}

TEST(EngineSessionCache, BorrowedBundlesAreNeverParked) {
  // A parked session outlives the submitting caller, so only fully owned
  // bundles may enter the LRU: parking borrowed pointers would hand a
  // later cache hit freed inputs.
  Engine engine;
  auto data = MakeVariant(0, 200);
  EXPECT_FALSE(
      CleaningInputs::Borrowed(&data->dataset, &data->dcs).FullyOwned());
  EXPECT_TRUE(InputsOf(data).FullyOwned());

  SessionOptions session_options;
  session_options.config = TestConfig();
  session_options.cache_key = "borrowed-key";
  Result<Report> report =
      engine
          .Submit(CleaningInputs::Borrowed(&data->dataset, &data->dcs),
                  session_options)
          .get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(engine.HasCachedSession("borrowed-key"));
  EXPECT_EQ(engine.cached_sessions(), 0u);

  // The explicit parking API refuses borrowed bundles too.
  SessionOptions cold;
  cold.config = TestConfig();
  auto opened = engine.OpenSession(
      CleaningInputs::Borrowed(&data->dataset, &data->dcs), cold);
  ASSERT_TRUE(opened.ok());
  engine.CacheSession("borrowed-key", std::move(opened).value());
  EXPECT_FALSE(engine.HasCachedSession("borrowed-key"));
}

TEST(EngineSessionCache, MismatchedInputsOpenCold) {
  Engine engine;
  auto data_a = MakeVariant(0, 200);
  auto data_b = MakeVariant(1, 200);
  SessionOptions session_options;
  session_options.config = TestConfig();
  session_options.cache_key = "shared-key";

  ASSERT_TRUE(engine.Submit(InputsOf(data_a), session_options).get().ok());
  EXPECT_TRUE(engine.HasCachedSession("shared-key"));

  // Same key, different dataset object: the parked session is not
  // compatible, so the job opens cold (no stage is marked cached).
  Result<Report> other =
      engine.Submit(InputsOf(data_b), session_options).get();
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  for (const StageTiming& t : other.value().stats.stage_timings) {
    EXPECT_FALSE(t.cached) << t.name;
  }
}

TEST(EngineSession, MoveKeepsPoolWiringAndInertsTheSource) {
  auto data = MakeVariant(0, 300);
  HoloCleanConfig config = TestConfig();
  config.num_threads = 2;

  // Private-pool session: move-construct right after a parallel run (the
  // pool queue may still hold drained TaskGroup helpers) and keep using
  // the destination after the source is gone.
  {
    auto opened = test_helpers::OpenSessionOver(config, &data->dataset, data->dcs);
    ASSERT_TRUE(opened.ok());
    Session session = std::move(opened).value();
    ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());
    Session moved = std::move(session);
    EXPECT_EQ(session.context().pool, nullptr);     // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(session.context().dataset, nullptr);  // NOLINT(bugprone-use-after-move)
    auto report = moved.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report.value().repairs.empty());
  }

  // Move-assignment over a session that already ran on its own pool: the
  // old pool (and any stale helper tasks it still queues) must tear down
  // cleanly, and the adopted session must stay runnable.
  {
    auto first = test_helpers::OpenSessionOver(config, &data->dataset, data->dcs);
    auto second = test_helpers::OpenSessionOver(config, &data->dataset, data->dcs);
    ASSERT_TRUE(first.ok() && second.ok());
    Session target = std::move(first).value();
    ASSERT_TRUE(target.Run().ok());
    Session source = std::move(second).value();
    ASSERT_TRUE(source.RunThrough(StageId::kDetect).ok());
    target = std::move(source);
    EXPECT_EQ(source.context().dataset, nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(target.StageIsValid(StageId::kDetect));
    EXPECT_FALSE(target.StageIsValid(StageId::kCompile));
    ASSERT_TRUE(target.Run().ok());
  }

  // Shared-pool sessions: the pool outlives any one session; moving must
  // keep the shared wiring and the engine's pool alive.
  {
    Engine engine;
    SessionOptions session_options;
    session_options.config = TestConfig();
    auto opened = engine.OpenSession(InputsOf(data), session_options);
    ASSERT_TRUE(opened.ok());
    Session session = std::move(opened).value();
    ASSERT_TRUE(session.RunThrough(StageId::kCompile).ok());
    Session moved = std::move(session);
    EXPECT_TRUE(moved.uses_shared_pool());
    EXPECT_FALSE(session.uses_shared_pool());  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(moved.Run().ok());
  }
}

TEST(EnginePerJobSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(Engine::PerJobSeed(42, 0), 42u);  // Job 0 keeps the base seed.
  EXPECT_EQ(Engine::PerJobSeed(42, 3), Engine::PerJobSeed(42, 3));
  EXPECT_NE(Engine::PerJobSeed(42, 1), Engine::PerJobSeed(42, 2));
  EXPECT_NE(Engine::PerJobSeed(42, 1), Engine::PerJobSeed(43, 1));
}

TEST(EngineDictionaryArena, StampedDictionariesShareTheIdPrefix) {
  Engine engine;
  Dictionary vocab;
  vocab.Intern("Chicago");
  vocab.Intern("IL");
  vocab.Intern("60608");
  engine.SeedDictionary(vocab);

  std::shared_ptr<Dictionary> a = engine.NewDictionary();
  std::shared_ptr<Dictionary> b = engine.NewDictionary();
  ASSERT_NE(a, b);  // Distinct dictionaries: no cross-job mutation races.
  EXPECT_EQ(a->size(), vocab.size());
  for (size_t i = 0; i < vocab.size(); ++i) {
    EXPECT_EQ(a->GetString(static_cast<ValueId>(i)),
              vocab.GetString(static_cast<ValueId>(i)));
    EXPECT_EQ(b->GetString(static_cast<ValueId>(i)),
              vocab.GetString(static_cast<ValueId>(i)));
  }
  // Diverging on top of the shared prefix is local to each copy.
  ValueId in_a = a->Intern("Springfield");
  EXPECT_FALSE(b->Contains("Springfield"));
  EXPECT_EQ(a->GetString(in_a), "Springfield");
}

TEST(EngineSpill, CapacityEvictionSpillsAndTheNextJobRestores) {
  EngineOptions options;
  options.session_cache_capacity = 1;
  options.spill_directory = ::testing::TempDir();
  Engine engine(options);
  auto data_a = MakeVariant(0, 200);
  auto data_b = MakeVariant(1, 200);

  SessionOptions opts_a;
  opts_a.config = TestConfig();
  opts_a.cache_key = "spill-a";
  SessionOptions opts_b = opts_a;
  opts_b.cache_key = "spill-b";

  Result<Report> first = engine.Submit(InputsOf(data_a), opts_a).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(engine.HasCachedSession("spill-a"));
  EXPECT_FALSE(engine.HasSpilledSession("spill-a"));

  // b's job parks over capacity: a's session is evicted into a snapshot.
  ASSERT_TRUE(engine.Submit(InputsOf(data_b), opts_b).get().ok());
  EXPECT_FALSE(engine.HasCachedSession("spill-a"));
  EXPECT_TRUE(engine.HasSpilledSession("spill-a"));

  // a's next job restores from the spill instead of recomputing: every
  // stage is served from the snapshot's cached artifacts, bit-identically.
  Result<Report> restored = engine.Submit(InputsOf(data_a), opts_a).get();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const StageTiming& t : restored.value().stats.stage_timings) {
    EXPECT_TRUE(t.cached) << t.name;
  }
  ExpectReportsEqual(first.value(), restored.value());
  // Spilled snapshots are single-use; the session is parked again now.
  EXPECT_FALSE(engine.HasSpilledSession("spill-a"));
  EXPECT_TRUE(engine.HasCachedSession("spill-a"));
}

TEST(EngineSpill, MismatchedInputsIgnoreTheSpillAndOpenCold) {
  EngineOptions options;
  options.session_cache_capacity = 1;
  options.spill_directory = ::testing::TempDir();
  Engine engine(options);
  auto data_a = MakeVariant(0, 200);
  auto data_b = MakeVariant(1, 200);
  auto data_c = MakeVariant(2, 200);

  SessionOptions shared;
  shared.config = TestConfig();
  shared.cache_key = "contested-key";
  ASSERT_TRUE(engine.Submit(InputsOf(data_a), shared).get().ok());
  SessionOptions other = shared;
  other.cache_key = "other-key";
  ASSERT_TRUE(engine.Submit(InputsOf(data_c), other).get().ok());
  ASSERT_TRUE(engine.HasSpilledSession("contested-key"));

  // A different dataset under the spilled key must not restore a's state.
  Result<Report> cold = engine.Submit(InputsOf(data_b), shared).get();
  ASSERT_TRUE(cold.ok());
  for (const StageTiming& t : cold.value().stats.stage_timings) {
    EXPECT_FALSE(t.cached) << t.name;
  }
  // The incompatible spill entry was discarded (single-use either way).
  EXPECT_FALSE(engine.HasSpilledSession("contested-key"));
}

TEST(EngineDrain, TakeAllCachedSessionsRoundTripsThroughSnapshots) {
  std::vector<std::shared_ptr<GeneratedData>> fleet;
  std::vector<Result<Report>> originals;
  std::vector<std::pair<std::string, Session>> drained;

  {
    Engine engine;
    SessionOptions session_options;
    session_options.config = TestConfig();
    for (size_t i = 0; i < 2; ++i) {
      fleet.push_back(MakeVariant(i, 200));
      session_options.cache_key = "drain-" + std::to_string(i);
      originals.push_back(
          engine.Submit(InputsOf(fleet[i]), session_options).get());
      ASSERT_TRUE(originals[i].ok());
    }
    // MRU first: the most recently parked key leads.
    std::vector<std::string> keys = engine.CachedSessionKeys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "drain-1");
    EXPECT_EQ(keys[1], "drain-0");

    drained = engine.TakeAllCachedSessions();
    EXPECT_EQ(engine.cached_sessions(), 0u);
    ASSERT_EQ(drained.size(), 2u);
    for (auto& [key, session] : drained) {
      ASSERT_TRUE(
          session.Save(::testing::TempDir() + key + ".snapshot").ok());
    }
    drained.clear();  // Sessions die with the old engine: only disk survives.
  }

  // A fresh engine (fresh pool, empty LRU) restores each snapshot and
  // serves the same reports from fully cached stages.
  Engine reborn;
  for (size_t i = 0; i < 2; ++i) {
    const std::string key = "drain-" + std::to_string(i);
    SessionOptions restore_options;
    restore_options.config = TestConfig();
    restore_options.snapshot_path = ::testing::TempDir() + key + ".snapshot";
    auto session = reborn.OpenSession(InputsOf(fleet[i]), restore_options);
    ASSERT_TRUE(session.ok()) << session.status();
    reborn.CacheSession(key, std::move(session).value());
  }
  SessionOptions session_options;
  session_options.config = TestConfig();
  for (size_t i = 0; i < 2; ++i) {
    session_options.cache_key = "drain-" + std::to_string(i);
    Result<Report> resumed =
        reborn.Submit(InputsOf(fleet[i]), session_options).get();
    ASSERT_TRUE(resumed.ok());
    for (const StageTiming& t : resumed.value().stats.stage_timings) {
      EXPECT_TRUE(t.cached) << t.name;
    }
    ExpectReportsEqual(originals[i].value(), resumed.value());
  }
}

}  // namespace
}  // namespace holoclean
