#include "api/session.h"

#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/mbea.h"
#include "baselines/mine_lmbc.h"
#include "core/mbet.h"
#include "engines/bbk.h"
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

/// SubtreeWorker adapters. Each worker engine polls the run's shared
/// controller (may be null), so any worker tripping a limit stops all
/// workers *of that session* — and nothing else.
class MbetWorker : public SubtreeWorker {
 public:
  MbetWorker(const BipartiteGraph& graph, const MbetOptions& options,
             RunController* controller)
      : engine_(graph, options) {
    engine_.SetRunController(controller);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbetEnumerator engine_;
};

/// Subtree worker over the MBEA family: plain MBEA (improved = false) and
/// iMBEA (improved = true) share the enumerator.
class MbeaFamilyWorker : public SubtreeWorker {
 public:
  MbeaFamilyWorker(const BipartiteGraph& graph, const MbeaOptions& options,
                   RunController* controller)
      : engine_(graph, options) {
    engine_.SetRunController(controller);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbeaEnumerator engine_;
};

/// Subtree worker over BBK; the engine's subtree decomposition mirrors the
/// MBEA family's.
class BbkWorker : public SubtreeWorker {
 public:
  BbkWorker(const BipartiteGraph& graph, const BbkOptions& options,
            RunController* controller)
      : engine_(graph, options) {
    engine_.SetRunController(controller);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  BbkEnumerator engine_;
};

/// Adapter for the algorithms without a subtree decomposition: the whole
/// enumeration is one monolithic task (Session::monolithic()), executed as
/// "subtree 0".
template <typename Enumerator>
class WholeGraphWorker : public SubtreeWorker {
 public:
  template <typename... Args>
  explicit WholeGraphWorker(RunController* controller, Args&&... args)
      : engine_(std::forward<Args>(args)...) {
    engine_.SetRunController(controller);
  }
  void EnumerateSubtree(VertexId /*v*/, ResultSink* sink) override {
    engine_.EnumerateAll(sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  Enumerator engine_;
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

  // Kernel-call attribution: the counters are process-wide (per-thread
  // blocks summed), so diff a snapshot around the run. Concurrent sessions
  // in one process bleed into each other's deltas; the counters are
  // diagnostics, not invariants.
  const simd::KernelCallCounters kernel_before = simd::SnapshotKernelCalls();
  kernel_intersect_before_ = kernel_before.intersect;
  kernel_difference_before_ = kernel_before.difference;
  kernel_mask_before_ = kernel_before.mask;
  kernel_word_before_ = kernel_before.word;

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
  if (monolithic_) return 1;
  return engine_->graph().num_right();
}

std::unique_ptr<SubtreeWorker> Session::MakeWorker() const {
  RunController* ctrl =
      controller_.has_value() ? const_cast<RunController*>(&*controller_)
                              : nullptr;
  const BipartiteGraph& work = engine_->graph();
  switch (effective_algorithm_) {
    case Algorithm::kMbet:
    case Algorithm::kMbetM:
      return std::make_unique<MbetWorker>(work, effective_mbet_, ctrl);
    case Algorithm::kImbea:
      return std::make_unique<MbeaFamilyWorker>(
          work, MbeaOptions{.improved = true}, ctrl);
    case Algorithm::kMbea:
      return std::make_unique<MbeaFamilyWorker>(
          work, MbeaOptions{.improved = false}, ctrl);
    case Algorithm::kBbk:
      return std::make_unique<BbkWorker>(
          work, BbkOptions{.bitmap_density = effective_mbet_.bitmap_density},
          ctrl);
    case Algorithm::kMineLmbc:
      return std::make_unique<WholeGraphWorker<MineLmbcEnumerator>>(ctrl,
                                                                    work);
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
  const simd::KernelCallCounters after = simd::SnapshotKernelCalls();
  out.stats.kernel_dispatch = static_cast<uint64_t>(simd::ActiveLevel());
  out.stats.simd_intersect_calls = after.intersect - kernel_intersect_before_;
  out.stats.simd_difference_calls =
      after.difference - kernel_difference_before_;
  out.stats.simd_mask_calls = after.mask - kernel_mask_before_;
  out.stats.simd_word_calls = after.word - kernel_word_before_;

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
  out.frontier_digest = frontier_digest_;
  out.frontier_completed = frontier_completed_;
  out.frontier_pending = frontier_pending_;
  budget_.EndRun();
  if (result != nullptr) *result = std::move(out);
}

util::Status Session::Run(ResultSink* sink, RunResult* result) {
  // Bind the session budget to this thread for the whole run — including
  // the destruction of enumerator scratch and buffers, so charges and
  // releases pair under the same budget.
  util::ScopedBudgetBinding binding(&budget_);
  PMBE_RETURN_IF_ERROR(PrepareImpl(sink, /*force_controller=*/false));
  RunController* ctrl = controller();
  const BipartiteGraph& work = engine_->graph();

  // Durable runs are frontier-driven (docs/CHECKPOINT.md): build the task
  // frontier before enumeration, either restoring a previous snapshot or
  // seeding this process's hash shard of the right side. Setup failures
  // (unreadable, corrupt, or mismatched snapshot) surface as a Status
  // before any worker starts.
  std::unique_ptr<snapshot::TaskFrontier> frontier;
  if (options_.checkpoint.enabled()) {
    frontier = std::make_unique<snapshot::TaskFrontier>(
        static_cast<uint8_t>(effective_algorithm_),
        options_.checkpoint.shard_index, options_.checkpoint.shard_count,
        work);
    util::Status seeded = util::Status::Ok();
    if (options_.checkpoint.resume) {
      util::StatusOr<snapshot::FrontierSnapshot> snap =
          snapshot::ReadSnapshotFile(options_.checkpoint.path);
      seeded = snap.ok() ? frontier->Restore(snap.value()) : snap.status();
    } else if (::access(options_.checkpoint.path.c_str(), F_OK) == 0) {
      // A fresh durable run must never clobber a resumable snapshot: the
      // first periodic write would silently destroy the previous run's
      // state. Forgetting checkpoint.resume is the common way to get
      // here, so refuse before any worker starts.
      seeded = util::Status::InvalidArgument(
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
        frontier->AddPending(EncodeTask(static_cast<VertexId>(v)));
      }
    }
    if (!seeded.ok()) {
      finished_ = true;
      budget_.EndRun();
      return seeded;
    }
  }

  auto run_enumeration = [&]() {
    // Durable runs always go through the parallel driver, even with one
    // thread: the frontier bookkeeping and the checkpointer live there.
    if (options_.threads > 1 || frontier != nullptr) {
      ParallelOptions popts;
      popts.threads = options_.threads;
      popts.controller = ctrl;
      popts.budget = &budget_;
      popts.watchdog_stall_seconds = options_.watchdog_stall_seconds;
      popts.frontier = frontier.get();
      popts.checkpoint = options_.checkpoint;
      WorkerFactory factory = [this]() { return MakeWorker(); };
      EnumStats merged = ParallelEnumerate(work, factory, popts, run_sink_);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.MergeFrom(merged);
      return;
    }
    switch (effective_algorithm_) {
      case Algorithm::kMbet:
      case Algorithm::kMbetM: {
        MbetEnumerator engine(work, effective_mbet_);
        engine.SetRunController(ctrl);
        engine.EnumerateAll(run_sink_);
        AddWorkerStats(engine.stats());
        break;
      }
      case Algorithm::kMineLmbc: {
        MineLmbcEnumerator engine(work);
        engine.SetRunController(ctrl);
        engine.EnumerateAll(run_sink_);
        AddWorkerStats(engine.stats());
        break;
      }
      case Algorithm::kMbea: {
        MbeaEnumerator engine(work, MbeaOptions{.improved = false});
        engine.SetRunController(ctrl);
        engine.EnumerateAll(run_sink_);
        AddWorkerStats(engine.stats());
        break;
      }
      case Algorithm::kImbea: {
        MbeaEnumerator engine(work, MbeaOptions{.improved = true});
        engine.SetRunController(ctrl);
        engine.EnumerateAll(run_sink_);
        AddWorkerStats(engine.stats());
        break;
      }
      case Algorithm::kBbk: {
        BbkEnumerator engine(
            work,
            BbkOptions{.bitmap_density = effective_mbet_.bitmap_density});
        engine.SetRunController(ctrl);
        engine.EnumerateAll(run_sink_);
        AddWorkerStats(engine.stats());
        break;
      }
    }
  };
  // Containment: an exception escaping the engines (a throwing user sink
  // in a single-thread run, or a parallel failure the driver rethrew for
  // lack of a controller) is a component failure, not a crash. With a
  // controller it becomes Termination::kInternal and the sink keeps its
  // valid prefix; without one it is reported as a kInternal Status.
  try {
    run_enumeration();
  } catch (const std::exception& e) {
    if (ctrl == nullptr) {
      finished_ = true;
      budget_.EndRun();
      return util::Status::Internal(std::string("enumeration failed: ") +
                                    e.what());
    }
    ctrl->ReportInternal(e.what());
  } catch (...) {
    if (ctrl == nullptr) {
      finished_ = true;
      budget_.EndRun();
      return util::Status::Internal("enumeration failed: unknown exception");
    }
    ctrl->ReportInternal("unknown exception");
  }
  if (frontier != nullptr) {
    frontier_digest_ = frontier->MergedDigest().Value();
    frontier_completed_ = frontier->completed_count();
    frontier_pending_ = frontier->pending_count();
  }
  Finish(result);
  return util::Status::Ok();
}

}  // namespace mbe
