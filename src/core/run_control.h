#ifndef PMBE_CORE_RUN_CONTROL_H_
#define PMBE_CORE_RUN_CONTROL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/enum_stats.h"
#include "core/sink.h"
#include "util/memory.h"
#include "util/timer.h"

/// \file
/// Run control: cooperative cancellation, wall-clock deadlines, work
/// budgets, and periodic progress reporting for enumeration runs.
///
/// MBE output is worst-case exponential, so a production caller must be
/// able to bound a run and still get the results emitted so far. The
/// pieces:
///
///  * `RunControl` — the caller-facing specification (part of
///    `mbe::RunOptions`): a cancellation token, a deadline, result/node
///    budgets, and a progress callback.
///  * `RunController` — the shared runtime state of one run: an atomic
///    stop flag plus the termination reason. All workers of a parallel run
///    share one controller, so the first worker to trip a deadline or
///    budget halts the whole fleet.
///  * `RunPoller` — a per-enumerator polling handle. Enumerators call
///    `ShouldStop()` once per enumeration-tree node; the common case is a
///    countdown decrement plus one relaxed atomic load, and every
///    `kStride` calls the poller runs a full checkpoint (clock read,
///    budget accounting, progress snapshot).
///  * `ControlledSink` — a sink decorator that counts emissions against
///    `max_results` and reflects the stop flag through the existing
///    `ResultSink::ShouldStop()` polling that all enumerators already do.
///
/// Deadlines and budgets are enforced at polling granularity: a run may
/// overshoot a node budget by up to `RunPoller::kStride` nodes per worker
/// and a deadline by the time it takes to expand that many nodes. Every
/// biclique emitted before the stop trips is a true maximal biclique of
/// the input — an interrupted run returns a valid prefix of the full
/// result set, never garbage.

namespace mbe {

/// Why an enumeration run stopped.
enum class Termination {
  kComplete = 0,  ///< ran to exhaustion; the result set is complete
  kCancelled,     ///< the caller's cancellation token was set
  kDeadline,      ///< the wall-clock deadline expired
  kBudget,        ///< a result or node budget was exhausted
  kMemoryLimit,   ///< the hard memory budget was exhausted (or an injected
                  ///< allocation fault forced it); the sink holds the
                  ///< valid prefix emitted before the stop
  kInternal,      ///< a component failed (throwing sink, stalled worker,
                  ///< injected fault); RunResult::message says what
  kCheckpointed,  ///< a checkpoint-stop request (e.g. SIGTERM on a durable
                  ///< run) stopped the run after persisting the task
                  ///< frontier; resume with --resume (docs/CHECKPOINT.md)
};

/// Stable display name ("complete", "cancelled", "deadline", "budget",
/// "memory-limit", "internal", "checkpointed").
const char* TerminationName(Termination termination);

/// Snapshot handed to the progress callback.
struct RunProgress {
  /// Merged counters of all workers, as of their last checkpoint (at most
  /// one polling stride stale per worker).
  EnumStats stats;
  /// Bicliques emitted to the caller's sink so far.
  uint64_t results = 0;
  /// Wall-clock seconds since the run started.
  double elapsed_seconds = 0;
};

/// Caller-facing run-control specification. Default-constructed control is
/// inert: no token, no deadline, no budgets, no progress reporting.
struct RunControl {
  /// Cooperative cancellation token. The caller keeps ownership and may
  /// set it from any thread (or a signal handler); the run stops at the
  /// next poll with Termination::kCancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// Wall-clock deadline in seconds from the start of the enumeration
  /// phase (0 = none). Tripping it reports Termination::kDeadline.
  double deadline_seconds = 0;

  /// Stop after this many bicliques have been emitted (0 = unlimited).
  /// Enforced exactly: the sink never sees more than `max_results`.
  uint64_t max_results = 0;

  /// Stop after roughly this many enumeration-tree nodes have been
  /// expanded across all workers (0 = unlimited). Polling-granular.
  uint64_t max_nodes_expanded = 0;

  /// Periodic progress callback, fired from whichever worker checkpoints
  /// first after the interval elapses (never concurrently with itself).
  /// Keep it fast; it runs on an enumeration thread.
  std::function<void(const RunProgress&)> progress;

  /// Progress firing interval. <= 0 with a callback set fires on every
  /// checkpoint (useful in tests).
  double progress_every_s = 1.0;
};

/// Shared runtime state of one controlled run. Thread-safe; one instance
/// is shared by every worker (and sink decorator) of the run.
class RunController {
 public:
  explicit RunController(const RunControl& spec);

  /// One relaxed atomic load; safe to call from any thread at any rate.
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Trips the stop flag with `reason`. The first trip wins; later calls
  /// (other workers noticing a different limit) are ignored.
  void RequestStop(Termination reason);

  /// Attaches the run's memory budget (nullptr detaches). Checkpoints poll
  /// its exhausted latch and convert it into Termination::kMemoryLimit.
  void AttachMemoryBudget(util::MemoryBudget* budget) { budget_ = budget; }

  /// Records a component failure (throwing sink, stalled worker, injected
  /// fault) and stops the run with Termination::kInternal. The first
  /// message wins; it surfaces as RunResult::message.
  void ReportInternal(const std::string& message);

  /// The first ReportInternal message, or empty.
  std::string message() const;

  /// Registers a polling worker and returns its stats slot. Each
  /// RunPoller registers once, lazily, on its first checkpoint.
  uint32_t RegisterWorker();

  /// Full amortized check, called by RunPoller every stride: snapshots
  /// `stats` into the worker's slot (progress + node accounting), then
  /// evaluates the cancellation token, the deadline, and the node budget.
  /// Returns the stop flag after evaluation.
  bool Checkpoint(uint32_t slot, const EnumStats& stats);

  /// Result accounting: reserves one emission against `max_results`.
  /// Returns false when the budget is already exhausted (the emission must
  /// be dropped); trips the stop flag when the budget is reached. Stops
  /// for other reasons (cancel, deadline, node budget) do NOT reject
  /// emissions: every produced biclique is genuine, and workers flush
  /// their BufferedSink remainders while draining after a stop — dropping
  /// those would break the valid-prefix contract.
  bool AdmitEmit();

  /// Termination reason so far: kComplete until a stop trips.
  Termination termination() const {
    return stop_requested()
               ? static_cast<Termination>(
                     reason_.load(std::memory_order_relaxed))
               : Termination::kComplete;
  }

  /// Bicliques admitted to the caller's sink.
  uint64_t results() const {
    return results_.load(std::memory_order_relaxed);
  }

  /// Restarts the clock the deadline and progress count from. Call before
  /// any worker polls (a session calls it when its run is prepared).
  void StartClock() { timer_.Reset(); }

  /// Wall-clock seconds since StartClock (or construction).
  double elapsed_seconds() const { return timer_.Seconds(); }

 private:
  const RunControl spec_;
  util::WallTimer timer_;
  util::MemoryBudget* budget_ = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<int> reason_{static_cast<int>(Termination::kComplete)};
  std::atomic<uint64_t> results_{0};

  /// Guards message_ (written once by the first ReportInternal).
  mutable std::mutex message_mu_;
  std::string message_;

  /// Guards slots_, nodes_total_, and next_progress_s_ (checkpoint path
  /// only — amortized to one lock per polling stride per worker).
  std::mutex mu_;
  std::vector<EnumStats> slots_;
  uint64_t nodes_total_ = 0;
  double next_progress_s_ = 0;

  /// Serializes the progress callback with itself (held only while firing).
  std::mutex progress_mu_;
};

/// Per-enumerator polling handle; owns the countdown that amortizes the
/// controller checkpoint. Not thread-safe (each worker owns its own, like
/// the enumerator embedding it). Detached (default) pollers never stop.
class RunPoller {
 public:
  /// Full checks run every this many ShouldStop calls.
  static constexpr uint32_t kStride = 64;

  /// Attaches to `controller` (nullptr detaches). Resets the countdown so
  /// the first poll after attaching runs a full checkpoint.
  void Attach(RunController* controller) {
    controller_ = controller;
    slot_ = kUnregistered;
    countdown_ = 1;
  }

  /// Cheap cooperative poll; call once per enumeration-tree node (calling
  /// more often is fine, the stride just shortens in wall time). `stats`
  /// are the owning enumerator's live counters.
  bool ShouldStop(const EnumStats& stats) {
    if (controller_ == nullptr) return false;
    if (controller_->stop_requested()) return true;
    if (--countdown_ > 0) return false;
    countdown_ = kStride;
    if (slot_ == kUnregistered) slot_ = controller_->RegisterWorker();
    return controller_->Checkpoint(slot_, stats);
  }

 private:
  static constexpr uint32_t kUnregistered = static_cast<uint32_t>(-1);

  RunController* controller_ = nullptr;
  uint32_t slot_ = kUnregistered;
  uint32_t countdown_ = 1;
};

/// Sink decorator binding a run's sink chain to its controller: emissions
/// are counted against the result budget (and dropped once the run is
/// stopping, so `max_results` is exact), and `ShouldStop` reflects the
/// shared stop flag into the polling all enumerators already do.
class ControlledSink : public ResultSink {
 public:
  ControlledSink(ResultSink* inner, RunController* controller)
      : inner_(inner), controller_(controller) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    if (!controller_->AdmitEmit()) return;
    inner_->Emit(left, right);
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    // Admit each emission so `max_results` stays exact under batching;
    // the whole-batch fast path keeps the downstream amortization.
    size_t admitted = 0;
    while (admitted < batch.size() && controller_->AdmitEmit()) ++admitted;
    if (admitted == batch.size()) {
      inner_->EmitBatch(batch);
      return;
    }
    for (size_t i = 0; i < admitted; ++i) {
      inner_->Emit(batch.left(i), batch.right(i));
    }
  }

  bool ShouldStop() const override {
    return controller_->stop_requested() || inner_->ShouldStop();
  }

 private:
  ResultSink* inner_;
  RunController* controller_;
};

}  // namespace mbe

#endif  // PMBE_CORE_RUN_CONTROL_H_
