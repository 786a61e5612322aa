#ifndef PMBE_API_SESSION_H_
#define PMBE_API_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/options.h"
#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "util/memory.h"

/// \file
/// `mbe::Session` — one enumeration query over a shared `mbe::Engine`
/// (docs/SERVICE.md).
///
/// A session owns everything that is per-query: the `RunOptions`, a
/// cancellation handle, a `RunController` (deadline / result / node
/// budgets), its **own `util::MemoryBudget` instance** (so one tenant
/// hitting its memory cap degrades and stops only its own run), and the
/// sink chain that translates emitted bicliques back to original ids and
/// counts them against the result budget. Any number of sessions run
/// concurrently over one engine.
///
/// Every multi-threaded or durable run executes on a `SessionPool`
/// (api/session_pool.h), the one task runtime:
///  * `Run(sink)` — standalone. One thread and no checkpoint runs inline:
///    one worker's whole-graph traversal on the calling thread. Otherwise
///    the session submits itself to a private pool of
///    min(`options.threads`, tasks) workers and waits; a durable run's
///    watchdog and checkpointer threads run around that wait. This is
///    what the one-shot `mbe::Enumerate` facade wraps.
///  * cooperative — a shared pool (the serving daemon's) calls
///    `Prepare()`, executes the session's subtree tasks on its own
///    workers (`MakeWorker` / `run_sink`), and calls `Finish()`. The
///    session still owns control, budget, and accounting; only the
///    threads are shared.
///
/// A durable session (checkpoint.path set) owns its task frontier
/// (snapshot/frontier.h): its tasks are the frontier's live words in
/// ascending order, and the pool commits each finished one there.

namespace mbe {

namespace snapshot {
class TaskFrontier;
}  // namespace snapshot

/// One single-threaded enumeration engine of a session. Workers are
/// thread-compatible: a scheduler builds one per thread and reuses it
/// across that thread's tasks.
class SubtreeWorker {
 public:
  virtual ~SubtreeWorker() = default;

  /// Enumerates the maximal bicliques whose minimum right vertex is `v`.
  virtual void EnumerateSubtree(VertexId v, ResultSink* sink) = 0;

  /// Enumerates every maximal biclique with the engine's own whole-graph
  /// traversal (the inline one-thread run).
  virtual void EnumerateAll(ResultSink* sink) = 0;

  /// Counters accumulated by this worker so far, including the kernel
  /// calls (EnumStats::simd_*_calls) its own enumeration dispatched.
  virtual EnumStats stats() const = 0;
};

/// Outcome of an enumeration run.
struct RunResult {
  EnumStats stats;      ///< merged enumeration counters
  double seconds = 0;   ///< wall time of the enumeration phase (excludes
                        ///< graph preprocessing)
  double preprocess_seconds = 0;  ///< ordering/relabeling time (engine
                                  ///< build; 0 when the engine was reused)

  /// Why the run stopped. Anything other than kComplete means the sink
  /// holds a valid prefix of the full result set (every emitted biclique
  /// is maximal; some maximal bicliques may be missing).
  Termination termination = Termination::kComplete;

  /// Bicliques emitted to the caller's sink (equals stats.maximal except
  /// when a result budget dropped racing emissions in a parallel run).
  uint64_t results_emitted = 0;

  /// Diagnostic for Termination::kInternal: what failed (the first
  /// contained exception's message, or the watchdog's report). Empty
  /// otherwise.
  std::string message;

  /// Id of the session that produced this result (0 for one-shot facade
  /// runs).
  uint64_t session_id = 0;

  /// Durable-run accounting (checkpointing runs only; all zero otherwise).
  /// `frontier_digest` folds the completed-task result digests
  /// (snapshot/frontier.h TaskDigest::Value): independent of threads and
  /// claim order, so a resumed run and an uninterrupted run that
  /// completed the same enumeration report the same digest.
  /// `frontier_pending` > 0 means the run stopped early and the snapshot
  /// file resumes it.
  uint64_t frontier_digest = 0;
  uint64_t frontier_completed = 0;
  uint64_t frontier_pending = 0;

  /// Convenience: did the run enumerate the complete result set?
  bool complete() const { return termination == Termination::kComplete; }
};

class Session {
 public:
  /// Binds the session to `engine` with `options`. `id` tags the session's
  /// budget, stats, and result for multi-tenant accounting.
  Session(std::shared_ptr<const Engine> engine, RunOptions options,
          uint64_t id = 0);
  virtual ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the enumeration into `sink`, blocking until it completes or a
  /// control trips, filling `*result` (which may be null). Returns
  /// InvalidArgument — without starting — when `sink` is null, the options
  /// fail Validate(), or the query is looser than the engine's baked core
  /// reduction. Interrupted runs are OK with `result->termination` set.
  /// A session runs once; a second Run returns FailedPrecondition-style
  /// InvalidArgument.
  util::Status Run(ResultSink* sink, RunResult* result = nullptr);

  /// Requests cooperative cancellation. Thread-safe, callable at any time
  /// from any thread (including before Run); the run stops at the next
  /// poll with Termination::kCancelled.
  void Cancel();

  uint64_t id() const { return id_; }
  const Engine& engine() const { return *engine_; }
  const RunOptions& options() const { return options_; }

  /// The session's private memory budget (serve-side accounting reads
  /// charged()/peak() live).
  util::MemoryBudget& budget() { return budget_; }

  // --- Cooperative execution (shared scheduler) --------------------------
  // The scheduler calls Prepare once, then executes `task_count()` subtree
  // tasks through workers it creates with MakeWorker (one per scheduler
  // thread, reused across this session's tasks), emitting into run_sink().
  // Every worker's allocations must happen under a ScopedBudgetBinding of
  // this session's budget(). After the last task retires the scheduler
  // reports each worker's stats() via AddWorkerStats and calls Finish.

  /// Validates and builds the run state (controller, budget, sink chain).
  /// Cooperative mode always creates a controller, so cancellation,
  /// deadline, memory containment, and exception containment work per
  /// session even with inert RunControl.
  util::Status Prepare(ResultSink* sink);

  /// Subtree tasks of this run: the frontier's live tasks for a durable
  /// run; otherwise one per right vertex of the engine graph for
  /// subtree-decomposable algorithms, 1 (whole-graph) for the rest.
  size_t task_count() const;

  /// Seed vertex of task `index` (< task_count()). Tasks ascend by vertex.
  VertexId task_vertex(size_t index) const;

  /// True when task v is the whole graph rather than one subtree (non
  /// subtree-decomposable algorithm).
  bool monolithic() const { return monolithic_; }

  /// The durable run's task frontier; null for volatile runs.
  snapshot::TaskFrontier* frontier() { return frontier_.get(); }

  /// Fresh single-threaded worker over the shared engine graph, attached
  /// to this session's controller. Thread-compatible: one per scheduler
  /// thread. Virtual so a test can run the pool with recording workers.
  virtual std::unique_ptr<SubtreeWorker> MakeWorker() const;

  /// The session's sink chain (translation + run control). Thread-safe.
  ResultSink* run_sink();

  /// The session's controller (valid after Prepare until destruction).
  RunController* controller();

  /// Folds one worker's counters into the session result (thread-safe).
  void AddWorkerStats(const EnumStats& stats);

  /// Contains a failed task or flush (thread-safe): with a controller the
  /// session stops with Termination::kInternal; without one (a standalone
  /// Run over inert options) the first message is kept and Run returns it
  /// as an Internal status.
  void ReportFailure(const std::string& what);

  /// Finalizes accounting (termination, budget peak, wall time) into
  /// `*result` (may be null). Call exactly once, after all tasks retired
  /// and all worker stats were added.
  void Finish(RunResult* result);

 private:
  util::Status ValidateAgainstEngine() const;

  /// Shared Prepare body. Standalone Run keeps the legacy
  /// controller-on-demand behavior (an uncontrolled run reports a throwing
  /// sink as an Internal *status*); cooperative callers force the
  /// controller.
  util::Status PrepareImpl(ResultSink* sink, bool force_controller);

  /// Builds the durable run's frontier: restores checkpoint.path or seeds
  /// this process's shard of the right side.
  util::Status SeedFrontier();

  /// Runs the prepared session on a private pool with the standalone-only
  /// watchdog and checkpointer around the wait; fills `*out`.
  void RunOnPool(RunResult* out);

  const uint64_t id_;
  std::shared_ptr<const Engine> engine_;
  RunOptions options_;

  util::MemoryBudget budget_;

  /// Cancel-before-Run latch and the live controller for Cancel().
  std::atomic<bool> pre_cancelled_{false};
  std::atomic<RunController*> live_controller_{nullptr};

  /// Run state between Prepare and Finish.
  bool prepared_ = false;
  bool finished_ = false;
  bool monolithic_ = false;
  std::optional<RunController> controller_;
  std::unique_ptr<ResultSink> translator_;
  std::optional<ControlledSink> controlled_;
  ResultSink* run_sink_ = nullptr;
  MbetOptions effective_mbet_;  ///< thresholds swapped into engine space
  /// The engine that actually runs. Equals options_.algorithm except when
  /// auto_tune's engine recommendation was honored (MBET ↔ BBK on
  /// plain-enumeration queries; see PrepareImpl). Drives MakeWorker and
  /// the durable frontier's algorithm tag — deterministic per (graph,
  /// options), so a resumed checkpoint re-derives the same engine.
  Algorithm effective_algorithm_ = Algorithm::kMbet;

  /// Accounting snapshots taken in Prepare, diffed in Finish.
  uint64_t degradations_before_ = 0;
  uint64_t faults_before_ = 0;

  /// Durable runs only: the frontier and its live tasks' seed vertices,
  /// ascending (the pool's claim order).
  std::unique_ptr<snapshot::TaskFrontier> frontier_;
  std::vector<VertexId> frontier_tasks_;

  /// Merged worker counters and the first uncontrolled failure (all
  /// guarded by stats_mu_).
  std::mutex stats_mu_;
  EnumStats stats_;
  bool failed_ = false;
  std::string failure_;

  util::WallTimer timer_;
};

}  // namespace mbe

#endif  // PMBE_API_SESSION_H_
