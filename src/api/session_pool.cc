#include "api/session_pool.h"

#include <algorithm>
#include <exception>
#include <span>
#include <string>
#include <utility>

#include "core/biclique.h"
#include "snapshot/frontier.h"
#include "util/fault.h"

namespace mbe {

namespace {

/// Per-task digest capture of a durable session: accumulates the
/// commutative (sum, xor, count) digest of one task's emissions on their
/// way into the slot's BufferedSink, before batching erases task
/// boundaries. Reset at task pickup, committed to the frontier at task
/// completion. Slot-local, like the buffer it wraps.
class TaskDigestSink : public ResultSink {
 public:
  explicit TaskDigestSink(ResultSink* inner) : inner_(inner) {}

  void Reset() { digest_ = snapshot::TaskDigest{}; }
  const snapshot::TaskDigest& digest() const { return digest_; }

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t h = HashBiclique(left, right);
    digest_.sum += h;
    digest_.xr ^= h;
    ++digest_.count;
    inner_->Emit(left, right);
  }

  // EmitBatch: the default per-entry fallback keeps the digest exact for
  // any engine that batches (the current engines emit singly).

  bool ShouldStop() const override { return inner_->ShouldStop(); }

 private:
  ResultSink* inner_;
  snapshot::TaskDigest digest_;
};

}  // namespace

struct SessionPool::ActiveSession {
  std::shared_ptr<Session> session;
  DoneCallback done;
  std::chrono::steady_clock::time_point submit_time;

  /// Next unclaimed task index; guarded by the pool mutex.
  size_t next_task = 0;
  /// Tasks not yet retired. The last decrement (acq_rel) makes every
  /// worker's writes to its slot visible to the retiring worker.
  std::atomic<size_t> remaining{0};
  std::atomic<bool> first_claimed{false};
  /// Cached "this session stopped" flag (its sink said stop, or a task
  /// failed), set by workers outside the pool mutex. The claim loop reads
  /// only this — never the sink chain — under the pool mutex: the
  /// session's sink may take its own locks (the serve WireSink shares one
  /// with a connection's writers), and chaining into those while holding
  /// the mutex every worker needs to claim work would let one stuck
  /// session stall the whole pool.
  std::atomic<bool> stopped{false};

  /// Lazily built per-pool-worker state. Slot i is written only by
  /// worker i while tasks are in flight; the retiring worker reads all
  /// slots after the remaining-count handoff.
  struct WorkerState {
    std::unique_ptr<SubtreeWorker> worker;
    std::unique_ptr<BufferedSink> sink;
    std::unique_ptr<TaskDigestSink> digest;  ///< durable sessions only
    uint64_t busy_ns = 0;
  };
  std::vector<WorkerState> per_worker;

  bool Stopped() {
    return stopped.load(std::memory_order_relaxed) ||
           session->run_sink()->ShouldStop();
  }
};

SessionPool::SessionPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  busy_since_ns_ = std::make_unique<std::atomic<uint64_t>[]>(n);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SessionPool::~SessionPool() { Shutdown(); }

void SessionPool::Submit(std::shared_ptr<Session> session,
                         DoneCallback done) {
  auto active = std::make_shared<ActiveSession>();
  active->session = std::move(session);
  active->done = std::move(done);
  active->submit_time = std::chrono::steady_clock::now();
  const size_t tasks = active->session->task_count();
  active->remaining.store(tasks, std::memory_order_relaxed);
  active->per_worker.resize(workers_.size());

  bool inline_finish = false;
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // The pool's workers are gone; honor the done-exactly-once contract
      // on the calling thread, as a cancelled empty run.
      inline_finish = cancelled = true;
    } else if (tasks == 0) {
      // Nothing to claim (empty right side, or a resumed frontier with no
      // live task): never enters the ring, so finish directly.
      inline_finish = true;
    } else {
      ring_.push_back(active);
    }
  }
  if (inline_finish) {
    if (cancelled) active->session->Cancel();
    RunResult result;
    {
      util::ScopedBudgetBinding binding(&active->session->budget());
      active->session->Finish(&result);
    }
    if (active->done) active->done(result);
    return;
  }
  cv_.notify_all();
}

void SessionPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void SessionPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::shared_ptr<ActiveSession> active;
    size_t first = 0;
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !ring_.empty(); });
      if (ring_.empty()) return;  // stop_ and fully drained
      if (cursor_ >= ring_.size()) cursor_ = 0;
      active = ring_[cursor_];
      const size_t total = active->session->task_count();
      first = active->next_task;
      // A stopped session's remaining tasks are pure bookkeeping: sweep
      // them in one claim instead of one lock round per subtree. Only the
      // cached flag is consulted here — see ActiveSession::stopped.
      count = active->stopped.load(std::memory_order_relaxed)
                  ? total - first
                  : 1;
      active->next_task += count;
      if (active->next_task >= total) {
        ring_.erase(ring_.begin() + cursor_);
      } else {
        ++cursor_;  // round-robin: next claim goes to the next session
      }
      if (cursor_ >= ring_.size()) cursor_ = 0;
    }
    if (count == 1) {
      RunTask(*active, worker_index, first);
    } else {
      RecordFirstClaim(*active);  // a session can stop before any task ran
    }
    Retire(active, count);
  }
}

void SessionPool::RecordFirstClaim(ActiveSession& active) {
  if (!active.first_claimed.exchange(true, std::memory_order_acq_rel)) {
    EnumStats wait_stats;
    wait_stats.queue_wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - active.submit_time)
            .count());
    active.session->AddWorkerStats(wait_stats);
  }
}

void SessionPool::RunTask(ActiveSession& active, size_t worker_index,
                          size_t task) {
  RecordFirstClaim(active);
  Session& session = *active.session;
  // Everything this task allocates — including lazy worker construction —
  // is charged to the owning session's budget, not to whichever session
  // the previous task on this thread belonged to.
  util::ScopedBudgetBinding binding(&session.budget());
  snapshot::TaskFrontier* frontier = session.frontier();
  std::atomic<uint64_t>& busy_since = busy_since_ns_[worker_index];
  busy_since.store(NowNs(), std::memory_order_relaxed);
  try {
    if (!active.Stopped()) {
      // "worker.task" models a worker failing at pickup; "worker.stall"
      // pauses long enough for an armed watchdog (any stall bound below
      // ~200ms) to notice a transient hang.
      if (PMBE_FAULT("worker.task")) {
        throw util::FaultError("injected fault: worker.task");
      }
      if (PMBE_FAULT("worker.stall")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      ActiveSession::WorkerState& slot = active.per_worker[worker_index];
      if (slot.worker == nullptr) {
        slot.worker = session.MakeWorker();
        slot.sink = std::make_unique<BufferedSink>(session.run_sink());
        if (frontier != nullptr) {
          slot.digest = std::make_unique<TaskDigestSink>(slot.sink.get());
        }
      }
      ResultSink* task_sink = slot.sink.get();
      if (slot.digest != nullptr) {
        slot.digest->Reset();
        task_sink = slot.digest.get();
      }
      const VertexId v = session.task_vertex(task);
      const uint64_t start = NowNs();
      slot.worker->EnumerateSubtree(v, task_sink);
      slot.busy_ns += NowNs() - start;
      if (frontier != nullptr && !active.Stopped()) {
        // The subtree ran to its end: flush, then commit its digest,
        // exactly once. The flush is the durability barrier (file
        // comment); a throwing flush lands in the catch below and the
        // task stays live. A stopped task stays live too — its digest was
        // never committed, so nothing counts twice on resume.
        slot.sink->Flush();
        frontier->MarkCompleted(EncodeTask(v), slot.digest->digest());
      }
    }
  } catch (const std::exception& e) {
    // Containment: this session stops with kInternal, its already-flushed
    // results a valid prefix; every other session on the pool is
    // untouched.
    session.ReportFailure(e.what());
    active.stopped.store(true, std::memory_order_relaxed);
  } catch (...) {
    session.ReportFailure("unknown exception in worker task");
    active.stopped.store(true, std::memory_order_relaxed);
  }
  busy_since.store(0, std::memory_order_relaxed);
  // Publish a newly tripped stop (cancel/deadline/budget/sink failure) so
  // the next claim sweeps the session's remaining tasks in one go.
  if (session.run_sink()->ShouldStop()) {
    active.stopped.store(true, std::memory_order_relaxed);
  }
}

void SessionPool::Retire(const std::shared_ptr<ActiveSession>& active,
                         size_t count) {
  if (active->remaining.fetch_sub(count, std::memory_order_acq_rel) !=
      count) {
    return;
  }
  // Last task retired: zero tasks are in flight, and the acq_rel handoff
  // above ordered every worker's slot writes before these reads.
  Session& session = *active->session;
  RunResult result;
  {
    util::ScopedBudgetBinding binding(&session.budget());
    for (ActiveSession::WorkerState& slot : active->per_worker) {
      if (slot.sink == nullptr) continue;
      try {
        // Buffered bicliques are genuine maximal bicliques: flushing them
        // on cancelled/limited sessions preserves the valid-prefix
        // guarantee.
        slot.sink->Flush();
      } catch (const std::exception& e) {
        session.ReportFailure(e.what());
      } catch (...) {
        session.ReportFailure("unknown exception flushing worker sink");
      }
    }
    for (ActiveSession::WorkerState& slot : active->per_worker) {
      if (slot.worker != nullptr) {
        EnumStats stats = slot.worker->stats();
        stats.busy_ns += slot.busy_ns;
        if (slot.sink != nullptr) stats.sink_flushes += slot.sink->flushes();
        session.AddWorkerStats(stats);
      }
      // Destroy under the session's budget binding so arena releases pair
      // with their charges.
      slot.digest.reset();
      slot.sink.reset();
      slot.worker.reset();
    }
    session.Finish(&result);
  }
  // Outside the binding: the callback may start another session (the
  // serving daemon hands a freed admission slot on from here), and that
  // session's charges are its own.
  if (active->done) active->done(result);
}

}  // namespace mbe
