#ifndef HOLOCLEAN_CORE_ENGINE_H_
#define HOLOCLEAN_CORE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "holoclean/core/inputs.h"
#include "holoclean/core/session.h"

namespace holoclean {

/// Construction-time knobs of an Engine.
struct EngineOptions {
  /// Workers of the shared pool (0 = hardware concurrency). The pool is
  /// created lazily, on the first shared-pool session or submitted job, so
  /// an engine used only through private-pool sessions never spawns it.
  size_t num_threads = 0;
  /// Capacity of the bounded LRU of parked sessions (restored or compiled
  /// state kept warm between jobs). 0 disables parking.
  size_t session_cache_capacity = 8;
  /// When set, sessions evicted from a full LRU are saved to compressed
  /// snapshots in this directory instead of being destroyed, and a later
  /// OpenSession/job under the same cache_key (same dataset object, same
  /// constraint/external-data fingerprints) restores the snapshot instead
  /// of recomputing from scratch. A spilled snapshot is single-use; a
  /// failed restore falls back to a cold open. Empty disables spilling.
  std::string spill_directory;
};

/// Per-session/per-job options: the pipeline configuration plus how the
/// session is created and pooled.
struct SessionOptions {
  SessionOptions() = default;
  /// Implicit, so callers that only set the config can pass `{config}`;
  /// as a constructor it leaves the other fields at their defaults
  /// without a -Wmissing-field-initializers warning per call site.
  SessionOptions(HoloCleanConfig cfg)  // NOLINT(runtime/explicit)
      : config(std::move(cfg)) {}

  HoloCleanConfig config;

  /// When set, the session restores its cached stage artifacts from this
  /// SessionSnapshot (the restore-into-pool path; same validation and
  /// bit-identical resume semantics as a standalone restore).
  std::string snapshot_path;
  /// Snapshot load knobs (lazy mmap-backed graph materialization).
  SnapshotLoadOptions load_options;

  /// When set, OpenSession first checks the engine's session LRU for a
  /// compatible parked session under this key (same dataset object, same
  /// constraint and external-data fingerprints) and returns it after an
  /// UpdateConfig — reusing every still-valid cached stage artifact, and
  /// skipping the snapshot load. Submitted jobs park their session back
  /// under the key when they succeed — only for fully owned bundles
  /// (CleaningInputs::FullyOwned): a parked session outlives the caller,
  /// so borrowed inputs are never parked. A cache hit trades nothing for
  /// correctness: incremental re-runs are bit-identical to cold runs.
  std::string cache_key;

  /// Run on a private per-session pool sized by config.num_threads
  /// instead of the engine's shared pool (the legacy facade semantics).
  /// Results are bit-identical either way.
  bool private_pool = false;
};

/// The process-wide entry point of the cleaning service: one Engine owns
/// the resources every session and batch job shares —
///
///  - a ThreadPool serving every concurrent session's parallel sections
///    (amortizing thread setup that used to be paid per session, and
///    keeping a multi-tenant process at a bounded worker count),
///  - a bounded LRU of parked sessions, so repeated jobs over the same
///    instance reuse restored/compiled state instead of recomputing it,
///  - an interned-dictionary arena: a base vocabulary that NewDictionary()
///    stamps into per-dataset dictionaries, giving engine-created
///    datasets a shared value-id prefix without sharing a mutable
///    Dictionary across concurrent jobs.
///
/// Sessions are opened synchronously with OpenSession; whole cleaning
/// jobs are submitted asynchronously with Submit/SubmitBatch, which run
/// the pipeline on the shared pool and expose each job's outcome as a
/// std::future<Result<Report>>. Jobs are isolated: one failing dataset
/// surfaces a clean per-job Status without poisoning its siblings, and
/// every job is deterministic — batch results are bit-identical to the
/// same jobs run sequentially as standalone sessions, for any pool size.
///
/// The engine must outlive its sessions (they share its pool); the
/// destructor waits for in-flight jobs.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Waits for every submitted job to finish.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens a session over the bundle: validates the inputs, consults the
  /// session LRU (options.cache_key), and otherwise opens cold — wired to
  /// the shared pool unless options.private_pool — restoring from
  /// options.snapshot_path when set.
  Result<Session> OpenSession(CleaningInputs inputs,
                              SessionOptions options = {});

  /// Asynchronously runs one full cleaning job (open, run all stages,
  /// optionally park under options.cache_key) on the shared pool. The
  /// returned future never throws: failures surface as the Result's
  /// Status.
  std::future<Result<Report>> Submit(CleaningInputs inputs,
                                     SessionOptions options = {});

  /// One batch job: an input bundle plus its session options.
  struct BatchJob {
    CleaningInputs inputs;
    SessionOptions options;
  };

  /// Submits one job per bundle, all running concurrently over the shared
  /// pool with fair FIFO interleaving of their parallel sections. Job i
  /// runs `common` with its seed replaced by PerJobSeed(common.config.seed,
  /// i) — deterministic, scheduling-independent, and reproducible
  /// standalone by running job i's inputs with that same derived seed.
  std::vector<std::future<Result<Report>>> SubmitBatch(
      std::vector<CleaningInputs> inputs, const SessionOptions& common = {});

  /// Fully explicit batch: every job runs exactly its own options (no seed
  /// derivation).
  std::vector<std::future<Result<Report>>> SubmitBatch(
      std::vector<BatchJob> jobs);

  /// The seed SubmitBatch derives for job `job_index` from the common
  /// config's seed: a SplitMix-style mix, so per-job streams are
  /// decorrelated but a standalone rerun of any single job is trivially
  /// reproducible. Job 0 keeps the base seed.
  static uint64_t PerJobSeed(uint64_t base_seed, size_t job_index);

  // --- Session LRU ---------------------------------------------------------

  /// Parks a session under `key` for later reuse by OpenSession/jobs with
  /// that cache_key, evicting the least-recently-used entry beyond
  /// capacity. An existing entry under the key is replaced. Sessions over
  /// bundles with borrowed inputs are destroyed instead of parked (their
  /// pointers die with the caller's scope).
  void CacheSession(const std::string& key, Session session);

  /// Removes and returns the parked session under `key`, if any.
  std::optional<Session> TakeCachedSession(const std::string& key);

  bool HasCachedSession(const std::string& key) const;
  size_t cached_sessions() const;

  /// Keys of every parked session, most recently used first. A consistent
  /// snapshot of the LRU; entries may be taken by concurrent jobs before
  /// the caller acts on them.
  std::vector<std::string> CachedSessionKeys() const;

  /// Removes and returns every parked session with its key (MRU first),
  /// leaving the LRU empty. The drain primitive: a server saves each
  /// returned session to a snapshot before shutting down.
  std::vector<std::pair<std::string, Session>> TakeAllCachedSessions();

  /// True when a spilled snapshot is indexed under `key` (testing hook).
  bool HasSpilledSession(const std::string& key) const;

  // --- Shared dictionary arena ---------------------------------------------

  /// Merges a vocabulary into the engine's interned-dictionary arena (ids
  /// are assigned in first-seen order and never change).
  void SeedDictionary(const Dictionary& vocab);

  /// A fresh per-dataset dictionary pre-populated with the arena's
  /// vocabulary: every engine-stamped dictionary shares the arena's
  /// value-id prefix, and the copy (which reuses the arena's cached
  /// hashes) is what keeps concurrent jobs free of cross-session
  /// dictionary races.
  std::shared_ptr<Dictionary> NewDictionary() const;

  /// The shared pool, created on first use.
  std::shared_ptr<ThreadPool> shared_pool();

  const EngineOptions& options() const { return options_; }

 private:
  struct CacheEntry {
    std::string key;
    uint64_t dcs_fp = 0;
    uint64_t extdata_fp = 0;
    Dataset* dataset = nullptr;
    Session session;
  };

  /// Index entry of one spilled (evicted-to-snapshot) session. The
  /// fingerprints replay the same compatibility check the LRU uses; the
  /// snapshot's own validation then re-checks everything on restore.
  struct SpillEntry {
    std::string path;
    uint64_t dcs_fp = 0;
    uint64_t extdata_fp = 0;
    Dataset* dataset = nullptr;
  };

  /// The body of one submitted job; runs on a pool worker.
  Result<Report> RunJob(CleaningInputs inputs, SessionOptions options);

  /// Takes the parked session under `key` when it is compatible with the
  /// bundle (same dataset object, same constraint/external-data
  /// fingerprints); incompatible or absent entries are left alone.
  std::optional<Session> TakeCompatibleSession(const std::string& key,
                                               const CleaningInputs& inputs);

  /// Takes the spill-index entry under `key` when it is compatible with
  /// the bundle. The entry is removed either way the caller's restore
  /// goes: spilled snapshots are single-use.
  std::optional<SpillEntry> TakeCompatibleSpill(const std::string& key,
                                                const CleaningInputs& inputs);

  /// Saves an evicted cache entry to a spill snapshot and indexes it.
  /// Called outside mutex_ (snapshot writes are expensive); on save
  /// failure the session is simply dropped, which is the pre-spill
  /// eviction behavior.
  void SpillEvicted(CacheEntry evicted);

  EngineOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  size_t inflight_jobs_ = 0;  ///< Guarded by mutex_.
  std::shared_ptr<ThreadPool> pool_;  ///< Lazily created; guarded by mutex_.
  Dictionary dict_arena_;  ///< Guarded by mutex_.
  /// LRU of parked sessions, most recent first, with an index by key.
  std::list<CacheEntry> lru_;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> by_key_;
  /// Spilled sessions by cache key; guarded by mutex_.
  std::unordered_map<std::string, SpillEntry> spill_index_;
  size_t spill_seq_ = 0;  ///< Uniquifies spill filenames; guarded by mutex_.
};

// --- Standalone (engine-free) entry points ---------------------------------

/// Opens a self-contained session over the bundle: no Engine required, the
/// session owns a private pool sized by options.config.num_threads.
/// options.snapshot_path/load_options restore exactly as in
/// Engine::OpenSession; cache_key and private_pool are ignored (there is
/// no LRU, and the pool is always private). This is the one-shot
/// replacement for the removed HoloClean facade's Open/Restore.
Result<Session> OpenStandaloneSession(CleaningInputs inputs,
                                      SessionOptions options = {});

/// Opens a standalone session, runs the full pipeline once, and returns
/// the report. The replacement for the removed facade's Run; callers that
/// need the learned weights open a session and read Session::weights().
Result<Report> CleanOnce(CleaningInputs inputs, SessionOptions options = {});

}  // namespace holoclean

#endif  // HOLOCLEAN_CORE_ENGINE_H_
