#include "api/session.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session_pool.h"
#include "baselines/mbea.h"
#include "baselines/mine_lmbc.h"
#include "core/mbet.h"
#include "engines/bbk.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"
#include "util/fault.h"
#include "util/simd.h"

namespace mbe {

namespace {

/// Maps emitted bicliques from preprocessed ids back to the caller's
/// original ids (and original side orientation), re-sorting each side. The
/// maps are views into the session's Engine, which the session keeps
/// alive. Stateless per emission, hence safe for concurrent Emit calls.
class TranslatingSink : public ResultSink {
 public:
  /// `left_new_to_old` / `right_new_to_old` are in the *preprocessed*
  /// orientation; `swapped` says the preprocessed left side is the
  /// caller's right side.
  TranslatingSink(ResultSink* inner, std::span<const VertexId> left_new_to_old,
                  std::span<const VertexId> right_new_to_old, bool swapped)
      : inner_(inner),
        left_map_(left_new_to_old),
        right_map_(right_new_to_old),
        swapped_(swapped) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    std::vector<VertexId> l(left.size()), r(right.size());
    for (size_t i = 0; i < left.size(); ++i) l[i] = left_map_[left[i]];
    for (size_t i = 0; i < right.size(); ++i) r[i] = right_map_[right[i]];
    std::sort(l.begin(), l.end());
    std::sort(r.begin(), r.end());
    if (swapped_) {
      inner_->Emit(r, l);
    } else {
      inner_->Emit(l, r);
    }
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    // Translate into a stack-local batch (this sink is shared by all
    // workers, so no member scratch) and forward in one call, preserving
    // the one-lock amortization of the buffered upstream.
    BicliqueBatch translated;
    std::vector<VertexId> l, r;
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto left = batch.left(i);
      const auto right = batch.right(i);
      l.resize(left.size());
      r.resize(right.size());
      for (size_t j = 0; j < left.size(); ++j) l[j] = left_map_[left[j]];
      for (size_t j = 0; j < right.size(); ++j) r[j] = right_map_[right[j]];
      std::sort(l.begin(), l.end());
      std::sort(r.begin(), r.end());
      if (swapped_) {
        translated.Append(r, l);
      } else {
        translated.Append(l, r);
      }
    }
    inner_->EmitBatch(translated);
  }

  bool ShouldStop() const override { return inner_->ShouldStop(); }

 private:
  ResultSink* inner_;
  std::span<const VertexId> left_map_;
  std::span<const VertexId> right_map_;
  bool swapped_;
};

/// SubtreeWorker adapter over one engine, polling the run's shared
/// controller (may be null), so any worker tripping a limit stops all
/// workers *of that session* — and nothing else. An engine without a
/// subtree decomposition (no EnumerateSubtree) runs its whole enumeration
/// as the one task "subtree 0" (Session::monolithic()).
///
/// Kernel calls are attributed per session by reading the executing
/// thread's counters around each enumeration call: whatever else the
/// thread runs between calls (another session's tasks on a shared pool)
/// stays out of this worker's counts.
template <typename Enumerator>
class EngineWorker : public SubtreeWorker {
 public:
  template <typename... Args>
  explicit EngineWorker(RunController* controller, Args&&... args)
      : engine_(std::forward<Args>(args)...) {
    engine_.SetRunController(controller);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    const simd::KernelCallCounters before = simd::ThreadKernelCalls();
    if constexpr (requires { engine_.EnumerateSubtree(v, sink); }) {
      engine_.EnumerateSubtree(v, sink);
    } else {
      engine_.EnumerateAll(sink);
    }
    CountKernelCalls(before);
  }
  void EnumerateAll(ResultSink* sink) override {
    const simd::KernelCallCounters before = simd::ThreadKernelCalls();
    engine_.EnumerateAll(sink);
    CountKernelCalls(before);
  }
  EnumStats stats() const override {
    EnumStats stats = engine_.stats();
    stats.simd_intersect_calls += kernel_calls_.intersect;
    stats.simd_mask_calls += kernel_calls_.mask;
    stats.simd_word_calls += kernel_calls_.word;
    return stats;
  }

 private:
  void CountKernelCalls(const simd::KernelCallCounters& before) {
    const simd::KernelCallCounters after = simd::ThreadKernelCalls();
    kernel_calls_.intersect += after.intersect - before.intersect;
    kernel_calls_.mask += after.mask - before.mask;
    kernel_calls_.word += after.word - before.word;
  }

  Enumerator engine_;
  simd::KernelCallCounters kernel_calls_;
};

}  // namespace

Session::Session(std::shared_ptr<const Engine> engine, RunOptions options,
                 uint64_t id)
    : id_(id), engine_(std::move(engine)), options_(std::move(options)) {
  budget_.set_session_id(id_);
}

Session::~Session() = default;

util::Status Session::ValidateAgainstEngine() const {
  if (engine_ == nullptr) {
    return util::Status::InvalidArgument("engine must not be null");
  }
  if (engine_->reduced_min_left() > 1 || engine_->reduced_min_right() > 1) {
    if (!FiltersBySize(options_.algorithm)) {
      return util::Status::InvalidArgument(
          std::string("engine was core-reduced to (") +
          std::to_string(engine_->reduced_min_left()) + ", " +
          std::to_string(engine_->reduced_min_right()) +
          ")-core; only the size-filtering MBET family can run on it (got " +
          AlgorithmName(options_.algorithm) + ")");
    }
    if (options_.mbet.min_left < engine_->reduced_min_left() ||
        options_.mbet.min_right < engine_->reduced_min_right()) {
      return util::Status::InvalidArgument(
          "session thresholds (" + std::to_string(options_.mbet.min_left) +
          ", " + std::to_string(options_.mbet.min_right) +
          ") are looser than the engine's baked (p, q)-core reduction (" +
          std::to_string(engine_->reduced_min_left()) + ", " +
          std::to_string(engine_->reduced_min_right()) +
          "); bicliques below the baked thresholds are gone from the "
          "reduced graph");
    }
  }
  return util::Status::Ok();
}

util::Status Session::PrepareImpl(ResultSink* sink, bool force_controller) {
  if (prepared_ || finished_) {
    return util::Status::InvalidArgument(
        "a Session runs once; build a new Session for another query");
  }
  if (sink == nullptr) {
    return util::Status::InvalidArgument("sink must not be null");
  }
  PMBE_RETURN_IF_ERROR(options_.Validate());
  PMBE_RETURN_IF_ERROR(ValidateAgainstEngine());

  // Thresholds are stated in the caller's orientation; the enumeration
  // runs in the engine's (possibly swapped) orientation.
  effective_mbet_ = options_.mbet;
  if (engine_->swapped()) {
    std::swap(effective_mbet_.min_left, effective_mbet_.min_right);
  }
  effective_mbet_.recompute_locals = options_.algorithm == Algorithm::kMbetM;
  effective_algorithm_ = options_.algorithm;

  // Workload-adaptive tuning: map the engine's build-time graph profile
  // through the decision table and override the *effective* knobs. The
  // caller's RunOptions stay untouched; the decision is recorded in the
  // run's stats so `--stats` / bench JSON can show what actually ran.
  // Every decision preserves the enumerated result set — the knobs trade
  // speed and memory, and the engine pick below swaps between two engines
  // proven set-identical by the digest matrix.
  if (options_.auto_tune) {
    const TunerDecision tuned = Tune(engine_->profile());
    effective_mbet_.bitmap_density = tuned.bitmap_density;
    // Engine selection is honored only where MBET and BBK are
    // interchangeable: a plain enumeration query (no size thresholds, no
    // baked core reduction, no branch-and-bound watermark) whose algorithm
    // is already one of the two. A query that pinned a baseline engine
    // (MBEA/iMBEA/...) keeps it — only its knobs are tuned. The pick is a
    // pure function of (graph, options), so a resumed checkpoint and the
    // original run derive the same engine.
    const bool engine_selectable =
        (options_.algorithm == Algorithm::kMbet ||
         options_.algorithm == Algorithm::kBbk) &&
        effective_mbet_.min_left == 1 && effective_mbet_.min_right == 1 &&
        engine_->reduced_min_left() == 1 &&
        engine_->reduced_min_right() == 1 &&
        effective_mbet_.best_edges == nullptr;
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (engine_selectable && tuned.engine != TunerEngine::kNone) {
      effective_algorithm_ = tuned.engine == TunerEngine::kBbk
                                 ? Algorithm::kBbk
                                 : Algorithm::kMbet;
      stats_.tuned_algorithm = static_cast<uint64_t>(tuned.engine);
    }
    stats_.auto_tuned = 1;
    stats_.tuned_bitmap_density_x1000 =
        static_cast<uint64_t>(tuned.bitmap_density * 1000.0);
    stats_.tuner_rule = static_cast<uint64_t>(tuned.rule);
  }
  monolithic_ = !SupportsParallel(effective_algorithm_);

  // Memory budget: the session's own instance. With max_memory_bytes == 0
  // the cap and pressure thresholds stay off and only the (cheap)
  // accounting runs, so results are identical.
  budget_.BeginRun(options_.max_memory_bytes);
  degradations_before_ = budget_.degradations();
  faults_before_ = util::FaultRegistry::Global().faults_injected();

  translator_ = std::make_unique<TranslatingSink>(
      sink, engine_->left_map(), engine_->right_map(), engine_->swapped());

  // Run control: one controller shared by every worker of this session,
  // spliced into the sink chain so emissions count against the result
  // budget and the stop flag is visible to all existing ShouldStop polls.
  // Inert control skips the machinery entirely — but a memory cap, a
  // watchdog, an armed fault registry, a pre-issued Cancel, or a
  // cooperative scheduler needs the controller too (it is what converts
  // exhaustion/failure/cancellation into a typed termination).
  const bool wants_controller =
      force_controller || options_.control.active() ||
      options_.max_memory_bytes > 0 || options_.watchdog_stall_seconds > 0 ||
      options_.checkpoint.enabled() ||
      util::FaultRegistry::Global().armed() ||
      pre_cancelled_.load(std::memory_order_acquire);
  if (wants_controller) {
    controller_.emplace(options_.control);
    controller_->AttachMemoryBudget(&budget_);
    controlled_.emplace(translator_.get(), &*controller_);
    run_sink_ = &*controlled_;
    live_controller_.store(&*controller_, std::memory_order_release);
    // Close the Cancel/Prepare race: a Cancel that ran between the
    // wants_controller read and the publication above set the latch but
    // missed the controller.
    if (pre_cancelled_.load(std::memory_order_acquire)) {
      controller_->RequestStop(Termination::kCancelled);
    }
  } else {
    run_sink_ = translator_.get();
  }

  prepared_ = true;
  timer_.Reset();
  return util::Status::Ok();
}

util::Status Session::Prepare(ResultSink* sink) {
  return PrepareImpl(sink, /*force_controller=*/true);
}

void Session::Cancel() {
  pre_cancelled_.store(true, std::memory_order_release);
  if (RunController* ctrl =
          live_controller_.load(std::memory_order_acquire)) {
    ctrl->RequestStop(Termination::kCancelled);
  }
}

size_t Session::task_count() const {
  if (frontier_ != nullptr) return frontier_tasks_.size();
  if (monolithic_) return 1;
  return engine_->graph().num_right();
}

VertexId Session::task_vertex(size_t index) const {
  return frontier_ != nullptr ? frontier_tasks_[index]
                              : static_cast<VertexId>(index);
}

std::unique_ptr<SubtreeWorker> Session::MakeWorker() const {
  RunController* ctrl =
      controller_.has_value() ? const_cast<RunController*>(&*controller_)
                              : nullptr;
  const BipartiteGraph& work = engine_->graph();
  switch (effective_algorithm_) {
    case Algorithm::kMbet:
    case Algorithm::kMbetM:
      return std::make_unique<EngineWorker<MbetEnumerator>>(
          ctrl, work, effective_mbet_);
    case Algorithm::kImbea:
      return std::make_unique<EngineWorker<MbeaEnumerator>>(
          ctrl, work, MbeaOptions{.improved = true});
    case Algorithm::kMbea:
      return std::make_unique<EngineWorker<MbeaEnumerator>>(
          ctrl, work, MbeaOptions{.improved = false});
    case Algorithm::kBbk:
      return std::make_unique<EngineWorker<BbkEnumerator>>(ctrl, work);
    case Algorithm::kMineLmbc:
      return std::make_unique<EngineWorker<MineLmbcEnumerator>>(ctrl, work);
  }
  return nullptr;
}

ResultSink* Session::run_sink() { return run_sink_; }

RunController* Session::controller() {
  return controller_.has_value() ? &*controller_ : nullptr;
}

void Session::AddWorkerStats(const EnumStats& stats) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.MergeFrom(stats);
}

void Session::ReportFailure(const std::string& what) {
  if (RunController* ctrl = controller()) {
    ctrl->ReportInternal(what);
    return;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!failed_) {
    failed_ = true;
    failure_ = what;
  }
}

void Session::Finish(RunResult* result) {
  if (!prepared_ || finished_) return;
  finished_ = true;

  RunResult out;
  out.session_id = id_;
  out.seconds = timer_.Seconds();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out.stats = stats_;
  }
  out.stats.kernel_dispatch = static_cast<uint64_t>(simd::ActiveLevel());

  // Robustness counters: read the budget's peak before EndRun re-baselines
  // it. Degradations diff against this session's budget — per-session by
  // construction; faults diff the process-wide registry (documented bleed
  // under concurrent injection, diagnostics only).
  out.stats.peak_charged_bytes = budget_.peak();
  out.stats.degradations = budget_.degradations() - degradations_before_;
  out.stats.faults_injected =
      util::FaultRegistry::Global().faults_injected() - faults_before_;
  if (controller_.has_value()) {
    // The memory latch may have tripped after the last worker checkpoint;
    // fold it in so short runs still report kMemoryLimit.
    if (budget_.exhausted()) {
      controller_->RequestStop(Termination::kMemoryLimit);
    }
    out.termination = controller_->termination();
    out.results_emitted = controller_->results();
    out.message = controller_->message();
  } else {
    out.termination = Termination::kComplete;
    out.results_emitted = out.stats.maximal;
  }
  if (frontier_ != nullptr) {
    out.frontier_digest = frontier_->MergedDigest().Value();
    out.frontier_completed = frontier_->completed_count();
    out.frontier_pending = frontier_->pending_count();
  }
  budget_.EndRun();
  if (result != nullptr) *result = std::move(out);
}

util::Status Session::SeedFrontier() {
  const BipartiteGraph& work = engine_->graph();
  frontier_ = std::make_unique<snapshot::TaskFrontier>(
      static_cast<uint8_t>(effective_algorithm_),
      options_.checkpoint.shard_index, options_.checkpoint.shard_count, work);
  if (options_.checkpoint.resume) {
    util::StatusOr<snapshot::FrontierSnapshot> snap =
        snapshot::ReadSnapshotFile(options_.checkpoint.path);
    PMBE_RETURN_IF_ERROR(snap.status());
    PMBE_RETURN_IF_ERROR(frontier_->Restore(snap.value()));
  } else if (::access(options_.checkpoint.path.c_str(), F_OK) == 0) {
    // A fresh durable run must never clobber a resumable snapshot: the
    // first periodic write would silently destroy the previous run's
    // state. Forgetting checkpoint.resume is the common way to get here,
    // so refuse before any worker starts.
    return util::Status::InvalidArgument(
        "checkpoint.path '" + options_.checkpoint.path +
        "' already exists; set checkpoint.resume (--resume) to continue "
        "that run, or remove the file to start fresh");
  } else {
    for (uint64_t v = 0; v < work.num_right(); ++v) {
      if (options_.checkpoint.shard_count > 1 &&
          snapshot::ShardOfSeed(static_cast<VertexId>(v),
                                options_.checkpoint.shard_count) !=
              options_.checkpoint.shard_index) {
        continue;
      }
      frontier_->AddPending(EncodeTask(static_cast<VertexId>(v)));
    }
  }
  for (uint64_t word : frontier_->PendingTasks()) {
    frontier_tasks_.push_back(TaskVertex(word));
  }
  return util::Status::Ok();
}

void Session::RunOnPool(RunResult* out) {
  RunController* ctrl = controller();
  const unsigned workers = static_cast<unsigned>(std::min<size_t>(
      options_.threads, std::max<size_t>(1, task_count())));
  SessionPool pool(workers);

  // Standalone-only monitor, one thread for both duties (each needs the
  // controller to report to):
  //  * watchdog — a pool worker busy on one task for over
  //    watchdog_stall_seconds stops the run with kInternal instead of an
  //    indistinguishable hang (docs/ROBUSTNESS.md);
  //  * checkpointer — persists the frontier every checkpoint.every_s
  //    seconds (every transition is atomic, so a snapshot at any instant
  //    is consistent) and turns the checkpoint-stop token into a typed
  //    kCheckpointed stop. A failed write breaks the durability contract,
  //    so it stops the run with kInternal.
  const snapshot::CheckpointOptions& checkpoint = options_.checkpoint;
  const bool persisting = frontier_ != nullptr && checkpoint.enabled();
  const uint64_t stall_ns =
      ctrl != nullptr
          ? static_cast<uint64_t>(options_.watchdog_stall_seconds * 1e9)
          : 0;
  const uint64_t every_ns =
      persisting && checkpoint.every_s > 0
          ? static_cast<uint64_t>(checkpoint.every_s * 1e9)
          : 0;
  const std::atomic<bool>* stop_token =
      frontier_ != nullptr && ctrl != nullptr ? checkpoint.checkpoint_stop
                                              : nullptr;
  std::atomic<bool> monitor_stop{false};
  uint64_t watchdog_checks = 0;
  uint64_t checkpoints_written = 0;
  std::thread monitor;
  if (stall_ns > 0 || every_ns > 0 || stop_token != nullptr) {
    const auto tick = std::chrono::nanoseconds(
        stall_ns > 0 ? std::min<uint64_t>(stall_ns / 4 + 1, 20000000ULL)
                     : 20000000ULL);
    monitor = std::thread([&, tick] {
      uint64_t last_write = SessionPool::NowNs();
      bool stall_reported = false;
      while (!monitor_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(tick);
        const uint64_t now = SessionPool::NowNs();
        if (stall_ns > 0 && !stall_reported) {
          ++watchdog_checks;
          for (unsigned w = 0; w < pool.threads() && !stall_reported; ++w) {
            const uint64_t since = pool.busy_since_ns(w);
            if (since != 0 && now > since && now - since > stall_ns) {
              stall_reported = true;  // one report stops the run
              ctrl->ReportInternal(
                  "watchdog: worker " + std::to_string(w) +
                  " has run one task for over " +
                  std::to_string(options_.watchdog_stall_seconds) + "s");
            }
          }
        }
        if (stop_token != nullptr &&
            stop_token->load(std::memory_order_relaxed)) {
          ctrl->RequestStop(Termination::kCheckpointed);
        }
        if (every_ns > 0 && now - last_write >= every_ns) {
          last_write = now;
          const util::Status written = snapshot::WriteSnapshotFile(
              checkpoint.path, frontier_->BuildSnapshot());
          if (!written.ok()) {
            ctrl->ReportInternal(written.ToString());
            return;
          }
          ++checkpoints_written;
        }
      }
    });
  }

  const util::WallTimer wall;
  pool.Submit(std::shared_ptr<Session>(this, [](Session*) {}),
              [out](const RunResult& result) { *out = result; });
  pool.Shutdown();  // returns once the session finished
  const uint64_t wall_ns = static_cast<uint64_t>(wall.Nanos());
  if (monitor.joinable()) {
    monitor_stop.store(true, std::memory_order_release);
    monitor.join();
  }
  // Final snapshot at drain — written on every exit path (clean finish,
  // cancellation, checkpointed stop, contained failure): the frontier is
  // consistent in all of them, and a snapshot with live tasks is exactly
  // what makes the run resumable.
  if (persisting) {
    const util::Status written =
        snapshot::WriteSnapshotFile(checkpoint.path, frontier_->BuildSnapshot());
    if (written.ok()) {
      ++checkpoints_written;
    } else {
      ctrl->ReportInternal(written.ToString());
      out->termination = ctrl->termination();
      out->message = ctrl->message();
    }
  }
  out->stats.watchdog_checks = watchdog_checks;
  out->stats.checkpoints_written = checkpoints_written;
  // The private pool's workers were this run's alone: whatever part of
  // their wall time was not task time was waiting for work.
  const uint64_t worker_ns = wall_ns * pool.threads();
  out->stats.idle_ns =
      worker_ns > out->stats.busy_ns ? worker_ns - out->stats.busy_ns : 0;
}

util::Status Session::Run(ResultSink* sink, RunResult* result) {
  // Bind the session budget to this thread for the whole run — including
  // the destruction of enumerator scratch and buffers, so charges and
  // releases pair under the same budget.
  util::ScopedBudgetBinding binding(&budget_);
  PMBE_RETURN_IF_ERROR(PrepareImpl(sink, /*force_controller=*/false));

  // Durable runs are frontier-driven (docs/CHECKPOINT.md). Setup failures
  // (unreadable, corrupt, or mismatched snapshot) surface as a Status
  // before any worker starts.
  if (options_.checkpoint.enabled()) {
    const util::Status seeded = SeedFrontier();
    if (!seeded.ok()) {
      finished_ = true;
      budget_.EndRun();
      return seeded;
    }
  }

  RunResult out;
  if (options_.threads > 1 || frontier_ != nullptr) {
    RunOnPool(&out);
  } else {
    // One thread, volatile: the engine's own whole-graph traversal, inline.
    // Containment: an exception escaping it (a throwing user sink) is a
    // component failure, not a crash.
    try {
      std::unique_ptr<SubtreeWorker> worker = MakeWorker();
      worker->EnumerateAll(run_sink_);
      AddWorkerStats(worker->stats());
    } catch (const std::exception& e) {
      ReportFailure(e.what());
    } catch (...) {
      ReportFailure("unknown exception");
    }
    Finish(&out);
  }
  // With a controller a failure already ended the run as kInternal and
  // the sink keeps its valid prefix; without one it is reported as a
  // kInternal Status.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (failed_) {
      return util::Status::Internal("enumeration failed: " + failure_);
    }
  }
  if (result != nullptr) *result = std::move(out);
  return util::Status::Ok();
}

}  // namespace mbe
