#ifndef PMBE_API_SESSION_POOL_H_
#define PMBE_API_SESSION_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/session.h"

/// \file
/// `mbe::SessionPool` — the one task runtime. A fixed set of workers
/// executes the subtree tasks of any number of prepared `Session`s.
///
/// Every multi-threaded or durable enumeration runs here: a standalone
/// `Session::Run` submits itself to a private pool of min(threads, tasks)
/// workers, `EnumerateSubtreeTasks` to a private one-worker pool, and the
/// serving daemon to one shared pool sized once for the whole process
/// (docs/PARALLELISM.md, docs/SERVICE.md).
///
/// Claim policy: workers claim one task at a time under one mutex. Across
/// sessions the rotation is round-robin by claims, not by work: a giant
/// query cannot starve a small one, but a small query that starts late
/// waits behind the giant's long tasks. Within a session tasks are claimed
/// in index order — ascending seed vertex (Session::task_vertex), which for
/// a durable session is its frontier's ascending live words. There are no
/// per-worker deques and no stealing: one shared cursor per session
/// measured at least as fast (EXPERIMENTS.md "One runtime").
///
/// Isolation per task: the worker binds the owning session's MemoryBudget
/// to its thread (charges attribute to that tenant only), polls that
/// session's stop signal (a deadline/cancel/budget trip stops only that
/// session's remaining tasks — they are swept as no-ops, preserving the
/// valid-prefix guarantee), and hands exceptions to that session's
/// `ReportFailure`. Worker state (enumerator + BufferedSink) is created
/// lazily per (session, worker) slot and destroyed — under the session's
/// budget binding, so charges and releases pair — by whichever worker
/// retires the session's last task; that worker also flushes every slot,
/// merges the slots' counters (engine stats, task busy time, sink
/// flushes), calls `Session::Finish`, and fires the done callback.
///
/// Durable sessions: each task's emissions pass through a per-slot digest
/// capture; a task that ran to its end is flushed downstream *before* the
/// frontier records it complete (the durability barrier — a snapshot must
/// never claim a task whose bicliques still sit in a volatile buffer), and
/// a stopped or failed task stays live so a resume re-runs it whole.

namespace mbe {

class SessionPool {
 public:
  /// Fired exactly once per submitted session, from a pool worker thread,
  /// after `Session::Finish` — the result is final and all result batches
  /// have been flushed to the session's sink.
  using DoneCallback = std::function<void(const RunResult&)>;

  /// Starts `threads` workers (at least 1).
  explicit SessionPool(unsigned threads);

  /// Drains (Shutdown) and joins.
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  unsigned threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a session whose `Prepare(sink)` already returned Ok. The
  /// pool owns the execution from here: `done` fires after the last task
  /// retires. Submitting to a pool that is already shut down cancels the
  /// session and completes it immediately on the calling thread.
  void Submit(std::shared_ptr<Session> session, DoneCallback done);

  /// Finishes every already submitted session (cancelled ones drain as
  /// no-op sweeps), then stops and joins the workers. Idempotent.
  void Shutdown();

  /// Steady-clock time (ns since the clock's epoch) at which worker `w`
  /// picked up the task it is running; 0 while it runs none. The
  /// standalone watchdog (RunOptions::watchdog_stall_seconds) sweeps these.
  uint64_t busy_since_ns(unsigned w) const {
    return busy_since_ns_[w].load(std::memory_order_relaxed);
  }

  /// The clock busy_since_ns reads.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  struct ActiveSession;

  void WorkerLoop(size_t worker_index);
  void RunTask(ActiveSession& active, size_t worker_index, size_t task);
  /// Retires `count` tasks; the last retirement flushes, merges stats,
  /// finishes the session, and fires `done`.
  void Retire(const std::shared_ptr<ActiveSession>& active, size_t count);
  void RecordFirstClaim(ActiveSession& active);

  std::mutex mu_;
  std::condition_variable cv_;
  /// Sessions with unclaimed tasks, visited round-robin via cursor_.
  std::vector<std::shared_ptr<ActiveSession>> ring_;
  size_t cursor_ = 0;
  bool stop_ = false;

  std::unique_ptr<std::atomic<uint64_t>[]> busy_since_ns_;
  std::vector<std::thread> workers_;
};

}  // namespace mbe

#endif  // PMBE_API_SESSION_POOL_H_
