#ifndef HOLOCLEAN_SERVE_SERVER_H_
#define HOLOCLEAN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "holoclean/core/engine.h"
#include "holoclean/serve/admission.h"
#include "holoclean/serve/protocol.h"
#include "holoclean/serve/queue.h"
#include "holoclean/serve/registry.h"

namespace holoclean {
namespace serve {

/// Construction-time knobs of a CleaningServer.
struct ServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after Start). The listener binds 127.0.0.1 only — the daemon
  /// has no authentication, so it must not face a network.
  int port = 0;

  /// Base pipeline configuration; per-request "config" overrides are
  /// applied on top of a copy, never mutating the base.
  HoloCleanConfig default_config;

  /// Engine sizing: shared-pool workers (0 = hardware concurrency) and
  /// the parked-session LRU capacity.
  size_t engine_threads = 0;
  size_t session_cache_capacity = 8;
  /// Engine spill directory: LRU-evicted sessions are saved as compressed
  /// snapshots here and restored on the next request instead of
  /// recomputed. Empty disables spilling.
  std::string spill_directory;

  /// Load-shedding bounds (per-tenant and global in-flight caps).
  AdmissionOptions admission;

  /// Deadline-aware waiting in front of admission: queue depth, default
  /// deadline, and the server-side deadline cap. queue.max_depth = 0
  /// restores reject-only admission.
  QueueOptions queue;

  /// SO_RCVTIMEO/SO_SNDTIMEO applied to every accepted connection, so a
  /// slow-loris peer (a frame trickled byte-by-byte, or never finished)
  /// cannot pin a connection thread forever. 0 disables.
  int socket_timeout_ms = 30000;

  /// Failpoint profile applied at construction (see util/failpoint.h);
  /// merged semantics match HOLOCLEAN_FAILPOINTS, but scoped to server
  /// startup so tests and the CI fault-smoke job can arm a fresh daemon
  /// without touching the environment. Empty = leave the global profile
  /// alone.
  std::string failpoint_profile;

  /// Where Drain() persists server state (dataset manifest + parked
  /// session snapshots) and RestoreState() reads it back. Empty disables
  /// state persistence (Drain then just stops the server).
  std::string state_directory;
};

/// The multi-tenant cleaning daemon over Engine.
///
/// One server owns one Engine (shared worker pool, parked-session LRU,
/// dictionary arena), a DatasetRegistry of named immutable base datasets,
/// and an AdmissionController bounding concurrent work. Requests arrive
/// either over TCP (Start spawns an accept loop; each connection gets a
/// thread speaking the length-prefixed JSON protocol) or in-process via
/// Handle() — tests and benchmarks dispatch through the exact same code
/// path the socket does, minus the framing.
///
/// Tenant isolation: each (tenant, dataset) pair gets a private working
/// copy of the registered base table, cloned with a private dictionary
/// (Table::CloneWithPrivateDictionary), on first use. Cleaning mutates
/// only that copy, so tenants sharing a dataset name never share mutable
/// state, and the engine's parked-session LRU keys warm state by
/// "tenant/dataset" — a tenant's repeat requests reuse its own session's
/// cached stage artifacts. Requests for the same (tenant, dataset) are
/// serialized on the slot (concurrent jobs must not share a Dataset);
/// distinct slots clean concurrently on the shared pool, bounded by
/// admission control.
///
/// Graceful drain: Drain() rejects new work with `draining`, stops the
/// listener, lets in-flight requests finish, then saves every parked
/// session to a snapshot plus a manifest of registered datasets under
/// state_directory. A restarted server calls RestoreState() to
/// re-register the datasets (re-parsing the verbatim payloads pins the
/// dictionary ids) and restore the parked sessions — follow-up requests
/// resume from warm state with bit-identical results.
class CleaningServer {
 public:
  explicit CleaningServer(ServerOptions options);
  /// Stops the listener and connection threads (without draining state).
  ~CleaningServer();

  CleaningServer(const CleaningServer&) = delete;
  CleaningServer& operator=(const CleaningServer&) = delete;

  /// Binds, listens, and spawns the accept loop. In-process Handle() use
  /// does not require Start().
  Status Start();

  /// The bound port (after Start; ephemeral binds report the real port).
  int port() const { return port_; }

  /// Stops the listener and joins connection threads. In-flight requests
  /// complete; nothing is persisted. Idempotent.
  void Stop();

  /// Graceful shutdown: flips the server to `draining` (new cleaning work
  /// is rejected), stops the listener, completes in-flight requests, then
  /// persists the dataset manifest and every parked session snapshot to
  /// options.state_directory. Idempotent; without a state_directory it
  /// degrades to Stop().
  Status Drain();

  /// Loads state persisted by a previous Drain(): re-registers every
  /// dataset and restores every parked session into the engine LRU.
  /// Missing state is not an error (fresh start). Call before Start().
  Status RestoreState();

  /// Dispatches one request frame and returns the response frame — the
  /// socket path minus framing. Thread-safe.
  JsonValue Handle(const JsonValue& request_frame);

  Engine& engine() { return engine_; }
  DatasetRegistry& registry() { return registry_; }
  AdmissionController& admission() { return admission_; }
  RequestQueue& queue() { return queue_; }
  bool draining() const { return draining_.load(); }
  const ServerOptions& options() const { return options_; }

 private:
  /// Per-(tenant, dataset) working state: the tenant's private dataset
  /// clone plus the config of its last successful run (what Drain
  /// persists so a restore reopens the parked session under the exact
  /// config fingerprint the snapshot was saved with).
  struct TenantSlot {
    std::mutex mu;  ///< Serializes requests over this slot's dataset.
    std::shared_ptr<Dataset> dataset;
    std::shared_ptr<const std::vector<DenialConstraint>> dcs;
    HoloCleanConfig config;  ///< Guarded by mu.
    bool has_run = false;    ///< Guarded by mu.
    /// Streaming-ingestion counters (append_rows), all guarded by mu —
    /// surfaced as explain_status's per-dataset "stream" object.
    size_t stream_appended_rows = 0;
    size_t stream_batches = 0;
    double stream_last_batch_seconds = 0.0;
  };

  std::shared_ptr<TenantSlot> GetOrCreateSlot(
      const std::shared_ptr<const DatasetRegistry::Entry>& entry);
  void DropSlot(const std::string& key);

  JsonValue Dispatch(const Request& req);
  JsonValue DoRegister(const Request& req);
  JsonValue DoDrop(const Request& req);
  JsonValue DoList(const Request& req);
  JsonValue DoClean(const Request& req);
  JsonValue DoFeedback(const Request& req);
  JsonValue DoAppendRows(const Request& req);
  JsonValue DoExplainStatus(const Request& req);

  /// The "server" object of explain_status: queue depth and counters,
  /// per-error-code response totals, socket timeouts, retried requests.
  JsonValue ServerStatusJson();
  /// Counts one finished response in the per-code counters.
  void CountResponse(const JsonValue& response);

  void AcceptLoop();
  void ServeConnection(int fd);

  ServerOptions options_;
  Engine engine_;
  DatasetRegistry registry_;
  AdmissionController admission_;
  RequestQueue queue_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};

  /// Observability counters surfaced by explain_status. `error_counts_`
  /// is keyed by wire error code (the closed vocabulary in protocol.h).
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> ok_total_{0};
  std::atomic<uint64_t> retried_requests_{0};
  std::atomic<uint64_t> socket_timeouts_{0};
  mutable std::mutex stats_mu_;
  std::map<std::string, uint64_t> error_counts_;  ///< Guarded by stats_mu_.

  mutable std::mutex slots_mu_;
  std::unordered_map<std::string, std::shared_ptr<TenantSlot>> slots_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

}  // namespace serve
}  // namespace holoclean

#endif  // HOLOCLEAN_SERVE_SERVER_H_
