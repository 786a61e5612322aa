#ifndef PMBE_PARALLEL_PARALLEL_MBE_H_
#define PMBE_PARALLEL_PARALLEL_MBE_H_

#include <functional>
#include <memory>

#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"
#include "parallel/work_stealing.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"

/// \file
/// The shared-memory parallel MBE driver. It fans the per-vertex subtree
/// decomposition (core/subtree.h) out over worker threads; each worker
/// owns a private enumerator instance (enumerators are single-threaded
/// state) and a private BufferedSink over the shared thread-safe
/// ResultSink (emissions are batched; see core/sink.h).
///
/// One scheduler: whole-subtree work stealing. Per-worker Chase–Lev
/// deques (parallel/work_stealing.h) are seeded heaviest-subtree-first,
/// and idle workers steal queued subtrees from random victims. Every
/// subtree runs whole on one worker (docs/PARALLELISM.md).
///
/// This plays two roles in the evaluation:
///  * "ParMBE": parallel iMBEA workers, the CPU-parallel comparison point;
///  * "MBET xN": parallel prefix-tree workers, for the scalability figure.

namespace mbe {

/// Per-worker enumeration engine: anything that can enumerate one subtree.
class SubtreeWorker {
 public:
  virtual ~SubtreeWorker() = default;

  /// Enumerates the maximal bicliques whose minimum right vertex is `v`.
  virtual void EnumerateSubtree(VertexId v, ResultSink* sink) = 0;

  /// Counters accumulated by this worker so far.
  virtual EnumStats stats() const = 0;
};

/// Factory producing one fresh worker per thread.
using WorkerFactory = std::function<std::unique_ptr<SubtreeWorker>()>;

/// Configuration of a parallel run.
struct ParallelOptions {
  unsigned threads = 1;

  /// Shared run controller (may be null). The driver skips unclaimed
  /// subtrees once its stop flag trips, so the first worker to hit a
  /// deadline or budget halts the whole fleet; the factory is responsible
  /// for attaching the same controller to each worker engine it builds.
  RunController* controller = nullptr;

  /// The run's memory budget. Workers bind it to their thread
  /// (util::ScopedBudgetBinding) so every charging site inside the
  /// enumeration attributes to this run — not to whatever another
  /// concurrent session bound elsewhere. nullptr binds the process
  /// default.
  util::MemoryBudget* budget = nullptr;

  /// Worker watchdog (needs a controller to report to). When > 0, a
  /// monitor thread sweeps per-worker heartbeats — stamped at every task
  /// pickup and steal-loop round — and a worker silent for this many
  /// seconds stops the run with Termination::kInternal. The bound is
  /// therefore on the *longest single task*, so it is opt-in (0 = off): a
  /// legitimately giant subtree between heartbeats is indistinguishable
  /// from a stuck one. See docs/ROBUSTNESS.md.
  double watchdog_stall_seconds = 0;

  /// Durable task frontier (snapshot/frontier.h); null runs volatile, as
  /// before. When set, the driver takes its seed tasks from the
  /// frontier's pending set instead of the whole right side, records every
  /// completion (with a per-task result digest) in it, and never
  /// re-runs a task the frontier already logged as completed — the
  /// substrate of checkpoint/resume and multi-process sharding
  /// (docs/CHECKPOINT.md). The caller owns the frontier and seeds it
  /// (fresh, restored from a snapshot, or one process shard of the seed
  /// space).
  snapshot::TaskFrontier* frontier = nullptr;

  /// Checkpoint persistence over `frontier` (ignored when frontier is
  /// null): `checkpoint.path` receives periodic snapshots every
  /// `checkpoint.every_s` seconds plus one final snapshot at drain, all
  /// written crash-safely (tmp+rename). `checkpoint.checkpoint_stop`
  /// turning true stops the run with Termination::kCheckpointed (needs a
  /// controller). The resume/shard fields are consumed by the caller when
  /// seeding the frontier, not by the driver.
  snapshot::CheckpointOptions checkpoint;
};

/// Runs the full enumeration of `graph` with `factory`-produced workers.
/// Returns the merged counters of all workers (including scheduler
/// counters: steals, sink_flushes, busy/idle time).
EnumStats ParallelEnumerate(const BipartiteGraph& graph,
                            const WorkerFactory& factory,
                            const ParallelOptions& options, ResultSink* sink);

}  // namespace mbe

#endif  // PMBE_PARALLEL_PARALLEL_MBE_H_
