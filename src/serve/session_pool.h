#ifndef PMBE_SERVE_SESSION_POOL_H_
#define PMBE_SERVE_SESSION_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/session.h"

/// \file
/// `serve::SessionPool` — one shared worker fleet executing many
/// concurrent `mbe::Session`s fairly.
///
/// The standalone `Session::Run` spawns `options.threads` workers per
/// query; a server doing that for 64 concurrent sessions would oversubscribe
/// the machine 64-fold. The pool inverts the ownership: N long-lived
/// workers claim *tasks* (one per-vertex subtree, or one whole-graph task
/// for monolithic algorithms) from the set of active sessions in
/// round-robin order. The rotation is by claims, not by work: a giant
/// query cannot starve a small one, but a small query that starts late
/// waits behind the giant's long tasks (ROADMAP item 5).
///
/// Isolation per task: the worker binds the owning session's MemoryBudget
/// to its thread (charges attribute to that tenant only), polls that
/// session's controller (a deadline/cancel/budget trip stops only that
/// session's remaining tasks — they are swept as no-ops, preserving the
/// valid-prefix guarantee), and catches exceptions into that session's
/// `ReportInternal`. Worker state (enumerator + BufferedSink) is created
/// lazily per (session, worker) slot and destroyed — under the session's
/// budget binding, so charges and releases pair — by whichever worker
/// retires the session's last task; that worker also merges all worker
/// counters, calls `Session::Finish`, and fires the done callback.

namespace mbe::serve {

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

 private:
  struct ActiveSession {
    std::shared_ptr<Session> session;
    DoneCallback done;
    std::chrono::steady_clock::time_point submit_time;

    /// Next unclaimed task index; guarded by the pool mutex.
    size_t next_task = 0;
    /// Tasks not yet retired. The last decrement (acq_rel) makes every
    /// worker's writes to its slot visible to the retiring worker.
    std::atomic<size_t> remaining{0};
    std::atomic<bool> first_claimed{false};
    /// Cached "this session's sink said stop" flag, set by workers outside
    /// the pool mutex. The claim loop reads only this — never the sink
    /// chain — under the pool mutex: the session's sink may take its own
    /// locks (the serve WireSink shares one with a connection's writers),
    /// and chaining into those while holding the mutex every worker needs
    /// to claim work would let one stuck session stall the whole pool.
    std::atomic<bool> stopped{false};

    /// Lazily built per-pool-worker state. Slot i is written only by
    /// worker i while tasks are in flight; the retiring worker reads all
    /// slots after the remaining-count handoff.
    struct WorkerState {
      std::unique_ptr<SubtreeWorker> worker;
      std::unique_ptr<BufferedSink> sink;
    };
    std::vector<WorkerState> per_worker;
  };

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

  std::vector<std::thread> workers_;
};

}  // namespace mbe::serve

#endif  // PMBE_SERVE_SESSION_POOL_H_
