#ifndef HOLOCLEAN_UTIL_THREAD_POOL_H_
#define HOLOCLEAN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace holoclean {

/// A fixed-size worker pool for data-parallel sections (grounding,
/// violation detection, Gibbs chains and the sweeps of a large chain — the
/// DimmWitted-style parallelism the paper's inference engine relies on).
///
/// The pool is shareable: one pool (typically owned by an Engine) can serve
/// many sessions at once. Concurrent callers' sections interleave on the
/// FIFO task queue, and every blocking entry point participates in its own
/// work (see TaskGroup), so a caller never deadlocks waiting for workers
/// that are busy with other jobs — including when the caller itself *is* a
/// pool worker running a batch job.
///
/// All parallel entry points in the library are deterministic: work is
/// split into index ranges and any per-task randomness is seeded by the
/// task index, never by the executing thread.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (hardware concurrency when 0).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget task. The destructor drains the queue, so
  /// every enqueued task runs exactly once. Tasks must not throw.
  void Enqueue(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n), distributed over the workers in
  /// contiguous chunks; blocks until all iterations complete. Executes
  /// inline when the pool has a single worker or n is small. The calling
  /// thread works on its own chunks while it waits, so concurrent
  /// sections from different sessions make progress on any pool size.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(begin, end) over disjoint chunks covering [0, n).
  void ParallelChunks(size_t n,
                      const std::function<void(size_t, size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool shutting_down_ = false;
};

/// A job-scoped group of tasks on a shared pool. Submitted tasks are
/// offered to the pool's workers, but Wait() (and the destructor) drains
/// the group's still-pending tasks on the calling thread too, so a group
/// completes even when every worker is busy with other jobs — the property
/// that makes one pool safely shareable across concurrent sessions and
/// lets batch jobs (which themselves run on pool workers) open nested
/// parallel sections without deadlock.
///
/// All group state lives on the heap behind a shared_ptr: helper tasks a
/// finished group left in the pool queue find an empty task list and
/// return without touching anything else, so a TaskGroup (and everything
/// its tasks captured) can be destroyed the moment Wait() returns.
class TaskGroup {
 public:
  /// `pool` may be null: tasks then run inline in Submit (the fully
  /// sequential configuration).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Adds a task to the group. Tasks must not throw.
  void Submit(std::function<void()> fn);

  /// Runs pending tasks on the calling thread until none remain, then
  /// blocks until tasks claimed by workers finish. On return every
  /// submitted task has completed.
  void Wait();

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable done;
    std::deque<std::function<void()>> pending;
    size_t running = 0;
  };

  /// Claims and runs one pending task; returns false when none were
  /// pending. Static so pool-queue helpers outliving the group can share
  /// the heap state without referencing the TaskGroup object.
  static bool RunOne(const std::shared_ptr<State>& state);

  ThreadPool* pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace holoclean

#endif  // HOLOCLEAN_UTIL_THREAD_POOL_H_
