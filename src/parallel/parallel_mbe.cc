#include "parallel/parallel_mbe.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/biclique.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/memory.h"
#include "util/random.h"

namespace mbe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// First-failure containment of the driver. An exception escaping
/// a worker task or a sink flush lands here: with a controller it becomes
/// Termination::kInternal (message preserved, fleet drains cooperatively);
/// without one the first exception is rethrown to the caller after the
/// join, so it is never swallowed and never crosses a thread boundary raw.
struct FailureLatch {
  explicit FailureLatch(RunController* run_controller)
      : controller(run_controller) {}

  RunController* controller;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr first;

  /// Call only from inside a catch block.
  void Record(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) first = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
    if (controller != nullptr) controller->ReportInternal(what);
  }

  void MaybeRethrow() {
    if (controller == nullptr && first) std::rethrow_exception(first);
  }
};

/// Worker-local digest capture for frontier mode: accumulates the
/// commutative (sum, xor, count) digest of one task's emissions on their
/// way into the worker's BufferedSink, before batching erases task
/// boundaries. Reset at task pickup, committed to the frontier at task
/// completion. Not thread-safe — strictly worker-local, like the buffer
/// it wraps.
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

/// Per-worker state of the scheduler. The deque is shared (thieves touch
/// it); everything else is owner-private until the final join.
struct StealWorkerState {
  TaskDeque deque;
  uint64_t steals = 0;
  uint64_t busy_ns = 0;
  uint64_t idle_ns = 0;
};

}  // namespace

/// The scheduler: per-worker Chase–Lev deques seeded with whole-subtree
/// tasks heaviest-last (so each owner starts on its heaviest seed while
/// thieves drain light tails), and randomized victim selection with
/// yield/sleep backoff.
EnumStats ParallelEnumerate(const BipartiteGraph& graph,
                            const WorkerFactory& factory,
                            const ParallelOptions& options, ResultSink* sink) {
  PMBE_CHECK(sink != nullptr);
  // A frontier-driven run goes on even on an empty graph, so that a
  // trivially complete run still writes its final snapshot.
  if (options.frontier == nullptr && graph.num_right() == 0) {
    return EnumStats{};
  }
  const uint64_t n = graph.num_right();
  RunController* controller = options.controller;
  snapshot::TaskFrontier* frontier = options.frontier;

  // Seed tasks: the whole right side for a volatile run; the frontier's
  // live set for a durable one (fresh seeds, a process shard of them, or
  // a restored snapshot's pending + in-flight tasks — completed tasks are
  // simply absent, which is how "never re-run" is enforced). Seed order:
  // right-degree ascending. Each worker's seeds are pushed lightest-first,
  // so the owner (LIFO at the bottom) starts on its heaviest subtree while
  // thieves (FIFO at the top) take the light tail. Degree is the cheap
  // seeding proxy: the subtree's real size is unknown until its root is
  // built.
  std::vector<uint64_t> seeds;
  if (frontier != nullptr) {
    seeds = frontier->PendingTasks();
  } else {
    seeds.reserve(n);
    for (uint64_t v = 0; v < n; ++v) {
      seeds.push_back(EncodeTask(static_cast<VertexId>(v)));
    }
  }
  std::stable_sort(seeds.begin(), seeds.end(), [&](uint64_t a, uint64_t b) {
    return graph.RightDegree(TaskVertex(a)) <
           graph.RightDegree(TaskVertex(b));
  });

  // No point spinning more workers than there are seed tasks.
  const uint64_t num_tasks = seeds.size();
  const unsigned workers = static_cast<unsigned>(std::min<uint64_t>(
      std::max(1u, options.threads), std::max<uint64_t>(1, num_tasks)));
  std::vector<StealWorkerState> states(workers);
  for (uint64_t rank = 0; rank < num_tasks; ++rank) {
    states[rank % workers].deque.Push(seeds[rank]);
  }

  // Outstanding tasks across all deques and in-flight executions. Workers
  // drain until this reaches zero (or the controller trips).
  std::atomic<uint64_t> remaining{num_tasks};

  FailureLatch failure(controller);

  // Watchdog heartbeats: ns timestamp of each worker's last sign of life
  // (task pickup or steal-loop round). 0 = not started yet,
  // kHeartbeatDone = exited cleanly. Workers only stamp; the monitor only
  // reads.
  constexpr uint64_t kHeartbeatDone = ~uint64_t{0};
  std::vector<std::atomic<uint64_t>> heartbeats(workers);
  std::atomic<uint64_t> watchdog_checks{0};

  std::vector<std::unique_ptr<SubtreeWorker>> engines(workers);
  std::vector<std::unique_ptr<BufferedSink>> buffers(workers);

  auto worker_main = [&](unsigned w) {
    // Attribute every allocation this worker makes to the run's budget
    // (worker threads are fresh and carry no binding of their own).
    util::ScopedBudgetBinding budget_binding(options.budget);
    heartbeats[w].store(NowNs(), std::memory_order_relaxed);
    try {
      engines[w] = factory();
      buffers[w] = std::make_unique<BufferedSink>(sink);
    } catch (const std::exception& e) {
      failure.Record(e.what());
    } catch (...) {
      failure.Record("unknown exception constructing worker");
    }
    if (engines[w] == nullptr || buffers[w] == nullptr) {
      heartbeats[w].store(kHeartbeatDone, std::memory_order_relaxed);
      return;
    }
    SubtreeWorker* engine = engines[w].get();
    BufferedSink* buffered = buffers[w].get();
    StealWorkerState& st = states[w];
    // Frontier mode interposes the per-task digest capture between the
    // engine and the buffer; volatile runs keep the direct path.
    TaskDigestSink digest_sink(buffered);
    ResultSink* const task_sink =
        frontier != nullptr ? static_cast<ResultSink*>(&digest_sink)
                            : static_cast<ResultSink*>(buffered);
    util::Rng rng(0x5eedULL * (w + 1) + 0x9e3779b97f4a7c15ULL);

    auto stopped = [&]() {
      return (controller != nullptr && controller->stop_requested()) ||
             failure.failed.load(std::memory_order_acquire);
    };

    auto run_task = [&](uint64_t word) {
      heartbeats[w].store(NowNs(), std::memory_order_relaxed);
      if (!stopped()) {
        if (frontier != nullptr) digest_sink.Reset();
        try {
          // "worker.task" models a worker failing at pickup;
          // "worker.stall" pauses long enough for an armed watchdog (any
          // stall bound below ~200ms) to notice a transient hang.
          if (PMBE_FAULT("worker.task")) {
            throw util::FaultError("injected fault: worker.task");
          }
          if (PMBE_FAULT("worker.stall")) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
          }
          const uint64_t t0 = NowNs();
          engine->EnumerateSubtree(TaskVertex(word), task_sink);
          st.busy_ns += NowNs() - t0;
          if (frontier != nullptr && !stopped() && !task_sink->ShouldStop()) {
            // The subtree ran to its end: commit its digest, exactly once.
            // A stopped or truncated task stays live and re-runs in full
            // on resume — its digest was never committed, so nothing
            // counts twice.
            //
            // Durability barrier: deliver the task's buffered results to
            // the downstream sink *before* the frontier records the task
            // complete. Committing first would let a periodic snapshot
            // claim a task whose bicliques still sit in this worker's
            // volatile buffer — a SIGKILL before the next flush would
            // lose them permanently, since resume never re-runs completed
            // tasks. A throwing flush lands in the catch below, so the
            // task stays live and re-runs in full on resume.
            buffered->Flush();
            frontier->MarkCompleted(word, digest_sink.digest());
          }
        } catch (const std::exception& e) {
          failure.Record(e.what());
        } catch (...) {
          failure.Record("unknown exception in worker task");
        }
      }
      // Count down even when the stop flag skipped the enumeration: the
      // drain invariant is "every seeded task is retired once".
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    };

    while (true) {
      uint64_t word;
      if (st.deque.Pop(&word)) {
        run_task(word);
        continue;
      }
      if (stopped() || remaining.load(std::memory_order_acquire) == 0) break;

      // Own deque empty: hunt for work. Thieves sweep random victims,
      // backing off from yield to a short sleep as sweeps keep failing.
      const uint64_t idle_start = NowNs();
      bool got = false;
      unsigned failed_sweeps = 0;
      while (!stopped() &&
             remaining.load(std::memory_order_acquire) > 0) {
        heartbeats[w].store(NowNs(), std::memory_order_relaxed);
        bool stole = false;
        for (unsigned attempt = 0; attempt < workers && !stole; ++attempt) {
          const unsigned victim =
              static_cast<unsigned>(rng.Below(workers));
          if (victim == w) continue;
          stole = states[victim].deque.Steal(&word);
        }
        if (stole) {
          got = true;
          break;
        }
        ++failed_sweeps;
        if (failed_sweeps < 16) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      st.idle_ns += NowNs() - idle_start;
      if (!got) break;
      ++st.steals;
      run_task(word);
    }

    // Flush the worker's buffer before the join: buffered bicliques are
    // genuine maximal bicliques and are delivered even on cancellation
    // (the valid-prefix contract of run control). A sink failing here is
    // contained like one failing mid-run: the already-delivered results
    // stay a valid prefix.
    try {
      buffered->Flush();
    } catch (const std::exception& e) {
      failure.Record(e.what());
    } catch (...) {
      failure.Record("unknown exception flushing worker sink");
    }
    heartbeats[w].store(kHeartbeatDone, std::memory_order_relaxed);
  };

  // Watchdog monitor: sweeps the heartbeats and converts a silent worker
  // into a typed internal failure instead of an indistinguishable hang.
  // Needs a controller to report to.
  std::thread watchdog;
  std::atomic<bool> watchdog_stop{false};
  if (options.watchdog_stall_seconds > 0 && controller != nullptr) {
    const uint64_t stall_ns =
        static_cast<uint64_t>(options.watchdog_stall_seconds * 1e9);
    const auto sweep_every = std::chrono::nanoseconds(
        std::min<uint64_t>(stall_ns / 4 + 1, 100000000ULL));
    watchdog = std::thread([&, stall_ns, sweep_every] {
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(sweep_every);
        watchdog_checks.fetch_add(1, std::memory_order_relaxed);
        const uint64_t now = NowNs();
        for (unsigned w = 0; w < workers; ++w) {
          const uint64_t beat = heartbeats[w].load(std::memory_order_relaxed);
          if (beat == 0 || beat == kHeartbeatDone) continue;
          if (now > beat && now - beat > stall_ns) {
            controller->ReportInternal(
                "watchdog: worker " + std::to_string(w) +
                " missed its heartbeat for over " +
                std::to_string(options.watchdog_stall_seconds) + "s");
            return;  // one report stops the run; the fleet drains
          }
        }
      }
    });
  }

  // Checkpointer (frontier mode): periodically persists the frontier to
  // the checkpoint path (quiescent-point snapshots — every frontier
  // transition is atomic, so a snapshot at any instant is consistent) and
  // polls the checkpoint-stop token into a typed kCheckpointed stop. A
  // failed write breaks the durability contract, so it is treated like a
  // worker failure: the run stops with kInternal rather than carrying on
  // silently un-checkpointed.
  std::thread checkpointer;
  std::atomic<bool> checkpointer_stop{false};
  std::atomic<uint64_t> checkpoints_written{0};
  const bool persisting = frontier != nullptr && options.checkpoint.enabled();
  const std::atomic<bool>* stop_token =
      (frontier != nullptr && controller != nullptr)
          ? options.checkpoint.checkpoint_stop
          : nullptr;
  if (persisting || stop_token != nullptr) {
    checkpointer = std::thread([&] {
      const uint64_t every_ns =
          (persisting && options.checkpoint.every_s > 0)
              ? static_cast<uint64_t>(options.checkpoint.every_s * 1e9)
              : ~uint64_t{0};
      uint64_t last = NowNs();
      bool stop_sent = false;
      while (!checkpointer_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (stop_token != nullptr && !stop_sent &&
            stop_token->load(std::memory_order_relaxed)) {
          stop_sent = true;
          controller->RequestStop(Termination::kCheckpointed);
        }
        if (every_ns != ~uint64_t{0} && NowNs() - last >= every_ns) {
          last = NowNs();
          const util::Status written = snapshot::WriteSnapshotFile(
              options.checkpoint.path, frontier->BuildSnapshot());
          if (!written.ok()) {
            try {
              throw std::runtime_error(written.ToString());
            } catch (...) {
              failure.Record(written.ToString());
            }
            return;
          }
          checkpoints_written.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  if (workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_main, w);
    for (std::thread& t : pool) t.join();
  }

  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }
  if (checkpointer.joinable()) {
    checkpointer_stop.store(true, std::memory_order_release);
    checkpointer.join();
  }
  // Final snapshot at drain — written on every exit path (clean finish,
  // cancellation, checkpointed stop, contained worker failure): the
  // frontier is consistent in all of them, and a snapshot with pending
  // tasks is exactly what makes the run resumable.
  if (persisting) {
    const util::Status written = snapshot::WriteSnapshotFile(
        options.checkpoint.path, frontier->BuildSnapshot());
    if (written.ok()) {
      checkpoints_written.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        throw std::runtime_error(written.ToString());
      } catch (...) {
        failure.Record(written.ToString());
      }
    }
  }
  failure.MaybeRethrow();

  EnumStats merged;
  for (unsigned w = 0; w < workers; ++w) {
    if (engines[w]) merged.MergeFrom(engines[w]->stats());
    if (buffers[w]) merged.sink_flushes += buffers[w]->flushes();
    merged.steals += states[w].steals;
    merged.busy_ns += states[w].busy_ns;
    merged.idle_ns += states[w].idle_ns;
  }
  merged.watchdog_checks = watchdog_checks.load(std::memory_order_relaxed);
  merged.checkpoints_written =
      checkpoints_written.load(std::memory_order_relaxed);
  return merged;
}

}  // namespace mbe
