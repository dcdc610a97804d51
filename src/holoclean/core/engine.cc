#include "holoclean/core/engine.h"

#include <cstdio>
#include <utility>

#include "holoclean/io/session_snapshot.h"
#include "holoclean/util/failpoint.h"
#include "holoclean/util/hash.h"

namespace holoclean {

Engine::Engine(EngineOptions options) : options_(options) {}

Engine::~Engine() {
  // Wait for submitted jobs: they run on our pool and park sessions into
  // our LRU, so none may outlive the members below. The pool itself is
  // torn down by the shared_ptr once the last session holding it goes.
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return inflight_jobs_ == 0; });
}

std::shared_ptr<ThreadPool> Engine::shared_pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_shared<ThreadPool>(options_.num_threads);
  }
  return pool_;
}

Result<Session> Engine::OpenSession(CleaningInputs inputs,
                                    SessionOptions options) {
  HOLO_RETURN_NOT_OK(inputs.Validate());
  if (!options.cache_key.empty()) {
    std::optional<Session> cached =
        TakeCompatibleSession(options.cache_key, inputs);
    if (cached.has_value()) {
      // The parked session keeps its own (still-alive) input bundle; the
      // new bundle only served as the compatibility witness. UpdateConfig
      // invalidates exactly the stage suffix the config diff requires, so
      // the reuse is bit-identical to a cold open + run.
      cached->UpdateConfig(options.config);
      return std::move(*cached);
    }
  }
  std::shared_ptr<ThreadPool> pool =
      options.private_pool ? nullptr : shared_pool();
  // Second-level warm path: a session evicted from the LRU may live on as
  // a spilled snapshot. Restoring it replays every cached stage artifact
  // bit-identically; any validation failure (e.g. a config fingerprint
  // mismatch) falls back to the cold open below. An explicit
  // snapshot_path outranks the spill (the caller asked for that state).
  if (!options.cache_key.empty() && options.snapshot_path.empty()) {
    std::optional<SpillEntry> spill =
        TakeCompatibleSpill(options.cache_key, inputs);
    if (spill.has_value()) {
      Session session(options.config, inputs, pool);
      // engine.spill.restore models a lost/corrupt spill file; injected or
      // real, a failed restore costs warmth only — the cold open below
      // recomputes from the registered inputs.
      Status restored = HOLO_FAILPOINT("engine.spill.restore");
      if (restored.ok()) {
        restored = session.RestoreFrom(spill->path, options.load_options);
      }
      std::remove(spill->path.c_str());
      if (restored.ok()) return session;
    }
  }
  Session session(options.config, std::move(inputs), std::move(pool));
  if (!options.snapshot_path.empty()) {
    HOLO_RETURN_NOT_OK(
        session.RestoreFrom(options.snapshot_path, options.load_options));
  }
  return session;
}

Result<Session> OpenStandaloneSession(CleaningInputs inputs,
                                      SessionOptions options) {
  HOLO_RETURN_NOT_OK(inputs.Validate());
  Session session(options.config, std::move(inputs), nullptr);
  if (!options.snapshot_path.empty()) {
    HOLO_RETURN_NOT_OK(
        session.RestoreFrom(options.snapshot_path, options.load_options));
  }
  return session;
}

Result<Report> CleanOnce(CleaningInputs inputs, SessionOptions options) {
  Result<Session> opened =
      OpenStandaloneSession(std::move(inputs), std::move(options));
  if (!opened.ok()) return opened.status();
  return opened.value().Run();
}

Result<Report> Engine::RunJob(CleaningInputs inputs, SessionOptions options) {
  // engine.job.run models a job failing (or stalling, with delay) on a
  // pool worker before any pipeline stage starts.
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("engine.job.run"));
  std::string cache_key = options.cache_key;
  Result<Session> opened = OpenSession(std::move(inputs), std::move(options));
  if (!opened.ok()) return opened.status();
  Session session = std::move(opened).value();
  Result<Report> report = session.Run();
  // Park only successful sessions: a failed stage may have left a partial
  // context, and the next job under the key deserves a cold open.
  // (CacheSession additionally refuses borrowed bundles.)
  if (report.ok() && !cache_key.empty()) {
    CacheSession(cache_key, std::move(session));
  }
  return report;
}

std::future<Result<Report>> Engine::Submit(CleaningInputs inputs,
                                           SessionOptions options) {
  auto promise = std::make_shared<std::promise<Result<Report>>>();
  std::future<Result<Report>> future = promise->get_future();
  std::shared_ptr<ThreadPool> pool = shared_pool();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_jobs_;
  }
  pool->Enqueue([this, promise, inputs = std::move(inputs),
                 options = std::move(options)]() mutable {
    promise->set_value(RunJob(std::move(inputs), std::move(options)));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_jobs_;
    }
    idle_.notify_all();
  });
  return future;
}

uint64_t Engine::PerJobSeed(uint64_t base_seed, size_t job_index) {
  if (job_index == 0) return base_seed;
  return Mix64(base_seed + 0x9E3779B97F4A7C15ULL * job_index);
}

std::vector<std::future<Result<Report>>> Engine::SubmitBatch(
    std::vector<CleaningInputs> inputs, const SessionOptions& common) {
  std::vector<std::future<Result<Report>>> futures;
  futures.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    SessionOptions options = common;
    options.config.seed = PerJobSeed(common.config.seed, i);
    futures.push_back(Submit(std::move(inputs[i]), std::move(options)));
  }
  return futures;
}

std::vector<std::future<Result<Report>>> Engine::SubmitBatch(
    std::vector<BatchJob> jobs) {
  std::vector<std::future<Result<Report>>> futures;
  futures.reserve(jobs.size());
  for (BatchJob& job : jobs) {
    futures.push_back(Submit(std::move(job.inputs), std::move(job.options)));
  }
  return futures;
}

void Engine::CacheSession(const std::string& key, Session session) {
  if (options_.session_cache_capacity == 0) return;
  const CleaningInputs& inputs = session.inputs();
  // A parked session outlives its caller, so borrowed inputs would turn
  // into dangling pointers the moment the caller's scope ends — and a
  // later cache hit (validated against the *new* bundle's fingerprints)
  // would dereference them. Only fully owned bundles may park; borrowed
  // ones are simply destroyed here, which is always safe.
  if (!inputs.FullyOwned()) return;
  Dataset* dataset = inputs.dataset_ptr();
  uint64_t dcs_fp = DcsFingerprint(*inputs.dcs_ptr(), dataset->dirty().schema());
  uint64_t extdata_fp = ExternalDataFingerprint(
      inputs.dicts_ptr(), inputs.mds_ptr(), inputs.detectors_ptr());
  CacheEntry entry{key, dcs_fp, extdata_fp, dataset, std::move(session)};
  // Sessions are destroyed (or spilled) outside the lock: pool teardown,
  // artifact frees, and snapshot writes have no business serializing
  // other cache users.
  std::optional<Session> replaced;
  std::optional<CacheEntry> evicted;
  std::string stale_spill_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      // Same-key replacement: the incoming session is strictly fresher,
      // so the old one is destroyed, never spilled.
      replaced = std::move(it->second->session);
      lru_.erase(it->second);
      by_key_.erase(it);
    }
    // The parked session also supersedes any spilled snapshot under the
    // key (the spill predates it).
    auto spill_it = spill_index_.find(key);
    if (spill_it != spill_index_.end()) {
      stale_spill_path = std::move(spill_it->second.path);
      spill_index_.erase(spill_it);
    }
    lru_.push_front(std::move(entry));
    by_key_[key] = lru_.begin();
    if (lru_.size() > options_.session_cache_capacity) {
      evicted = std::move(lru_.back());
      by_key_.erase(evicted->key);
      lru_.pop_back();
    }
  }
  if (!stale_spill_path.empty()) std::remove(stale_spill_path.c_str());
  if (evicted.has_value() && !options_.spill_directory.empty()) {
    SpillEvicted(std::move(*evicted));
  }
}

void Engine::SpillEvicted(CacheEntry evicted) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path = options_.spill_directory + "/spill-" +
           std::to_string(spill_seq_++) + ".snapshot";
  }
  // Packed-codec save (the SnapshotSaveOptions default): spilled state is
  // cold by definition, so it pays the compact-on-disk trade.
  // engine.spill.save models a full/failed disk during the save.
  Status saved = HOLO_FAILPOINT("engine.spill.save");
  if (saved.ok()) saved = evicted.session.Save(path);
  if (!saved.ok()) {
    std::remove(path.c_str());
    return;  // Dropping the session is the pre-spill eviction behavior.
  }
  SpillEntry entry{path, evicted.dcs_fp, evicted.extdata_fp, evicted.dataset};
  std::string displaced_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A concurrent job may have re-parked or re-spilled the key while we
    // were saving; the newer state wins and this snapshot is discarded.
    if (by_key_.count(evicted.key) > 0 ||
        spill_index_.count(evicted.key) > 0) {
      displaced_path = std::move(path);
    } else {
      spill_index_.emplace(evicted.key, std::move(entry));
    }
  }
  if (!displaced_path.empty()) std::remove(displaced_path.c_str());
}

std::optional<Session> Engine::TakeCachedSession(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return std::nullopt;
  std::optional<Session> session(std::move(it->second->session));
  lru_.erase(it->second);
  by_key_.erase(it);
  return session;
}

std::optional<Session> Engine::TakeCompatibleSession(
    const std::string& key, const CleaningInputs& inputs) {
  Dataset* dataset = inputs.dataset_ptr();
  uint64_t dcs_fp =
      DcsFingerprint(*inputs.dcs_ptr(), dataset->dirty().schema());
  uint64_t extdata_fp = ExternalDataFingerprint(
      inputs.dicts_ptr(), inputs.mds_ptr(), inputs.detectors_ptr());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return std::nullopt;
  CacheEntry& entry = *it->second;
  // Reuse demands the same dataset *object* (the parked session's cached
  // artifacts embed its cell values and dictionary ids) and identical
  // constraint/external-data inputs. A mismatched entry stays parked: the
  // caller opens cold and typically replaces it afterwards.
  if (entry.dataset != dataset || entry.dcs_fp != dcs_fp ||
      entry.extdata_fp != extdata_fp) {
    return std::nullopt;
  }
  std::optional<Session> session(std::move(entry.session));
  lru_.erase(it->second);
  by_key_.erase(it);
  return session;
}

std::optional<Engine::SpillEntry> Engine::TakeCompatibleSpill(
    const std::string& key, const CleaningInputs& inputs) {
  Dataset* dataset = inputs.dataset_ptr();
  uint64_t dcs_fp =
      DcsFingerprint(*inputs.dcs_ptr(), dataset->dirty().schema());
  uint64_t extdata_fp = ExternalDataFingerprint(
      inputs.dicts_ptr(), inputs.mds_ptr(), inputs.detectors_ptr());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spill_index_.find(key);
  if (it == spill_index_.end()) return std::nullopt;
  if (it->second.dataset != dataset || it->second.dcs_fp != dcs_fp ||
      it->second.extdata_fp != extdata_fp) {
    return std::nullopt;
  }
  SpillEntry entry = std::move(it->second);
  spill_index_.erase(it);
  return entry;
}

bool Engine::HasCachedSession(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_key_.count(key) > 0;
}

bool Engine::HasSpilledSession(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spill_index_.count(key) > 0;
}

std::vector<std::string> Engine::CachedSessionKeys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const CacheEntry& entry : lru_) keys.push_back(entry.key);
  return keys;
}

std::vector<std::pair<std::string, Session>> Engine::TakeAllCachedSessions() {
  std::list<CacheEntry> taken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    taken = std::move(lru_);
    lru_.clear();
    by_key_.clear();
  }
  std::vector<std::pair<std::string, Session>> sessions;
  sessions.reserve(taken.size());
  for (CacheEntry& entry : taken) {
    sessions.emplace_back(std::move(entry.key), std::move(entry.session));
  }
  return sessions;
}

size_t Engine::cached_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void Engine::SeedDictionary(const Dictionary& vocab) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < vocab.size(); ++i) {
    dict_arena_.Intern(vocab.GetString(static_cast<ValueId>(i)));
  }
}

std::shared_ptr<Dictionary> Engine::NewDictionary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::make_shared<Dictionary>(dict_arena_);
}

}  // namespace holoclean
