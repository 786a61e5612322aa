#ifndef PMBE_API_OPTIONS_H_
#define PMBE_API_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/mbet.h"
#include "core/run_control.h"
#include "graph/ordering.h"
#include "snapshot/checkpoint.h"
#include "util/status.h"

/// \file
/// Configuration types of the session-oriented API (docs/SERVICE.md).
///
/// Configuration has two lifetimes: *graph preprocessing* decisions
/// (ordering, relabeling, side swap, core reduction) are made once when a
/// graph is loaded, and *run control* decisions (algorithm, threads,
/// budgets, deadlines) differ per query. The two types mirror the two API
/// objects:
///
///  * `GraphOptions` — owned by `mbe::Engine`: everything baked into the
///    immutable preprocessed graph, shared read-only by all sessions.
///  * `RunOptions` — owned by `mbe::Session`: everything a single
///    enumeration query controls.
///
/// The one-shot facade (api/mbe.h) takes the same two types.

namespace mbe {

/// Which enumeration algorithm to run. The numeric values are the wire
/// encoding (serve/wire.h) and never change; 5 is unassigned. The
/// ooMBEA-lite baseline of the paper is kImbea run subtree by subtree
/// (EnumerateSubtreeTasks, api/mbe.h) under VertexOrder::kUnilateralAsc.
enum class Algorithm {
  kMbet = 0,      ///< prefix-tree enumerator (the paper's contribution)
  kMbetM = 1,     ///< space-optimized MBET (no stored locals)
  kMineLmbc = 2,  ///< textbook recursive baseline
  kMbea = 3,      ///< MBEA (Q-set check, unsorted candidates)
  kImbea = 4,     ///< iMBEA (Q-set check + candidate ordering)
  kBbk = 6,       ///< pivot-free left extension, degree-ordered candidates
                  ///< (Baudin et al. 2024) — the large-sparse-graph engine
};

/// Names nothing any more: every parallel run executes on the session
/// pool (api/session_pool.h; docs/PARALLELISM.md), and no value changes
/// that. The enum and `RunOptions::scheduling` stay until a benchmark
/// change stops naming them.
enum class Scheduling {
  kStealing,  ///< ignored; the session pool schedules every run
};

/// Parses "mbet", "mbetm", "minelmbc", "mbea", "imbea", "bbk" into
/// `*algorithm`; returns InvalidArgument (leaving `*algorithm` untouched)
/// on unknown names.
util::Status ParseAlgorithm(const std::string& name, Algorithm* algorithm);

/// Decodes a numeric (wire) algorithm value into `*algorithm`; returns
/// InvalidArgument (leaving `*algorithm` untouched) on values that name no
/// algorithm.
util::Status AlgorithmFromValue(uint32_t value, Algorithm* algorithm);

/// Stable display name of an algorithm.
const char* AlgorithmName(Algorithm algorithm);

/// True for the algorithms the per-vertex subtree decomposition (and hence
/// any parallel or pooled execution) supports.
bool SupportsParallel(Algorithm algorithm);

/// True for the size-filtering MBET family: the algorithms that honor
/// `RunOptions::mbet.min_left/min_right`, and so the only ones that may run
/// on a core-reduced engine.
bool FiltersBySize(Algorithm algorithm);

/// Graph preprocessing configuration, fixed at `Engine::Build` time. All
/// vertex-size thresholds are stated in the *caller's* orientation; the
/// engine accounts for side swapping internally.
struct GraphOptions {
  /// Right-side traversal order (ooMBEA-lite runs under kUnilateralAsc;
  /// see Algorithm). Defaults to degree-ascending.
  VertexOrder order = VertexOrder::kDegreeAsc;

  /// Relabel the left side hub-first (descending degree) so that local
  /// neighborhoods share prefixes in the trie. No effect on correctness.
  bool hub_first_left = true;

  /// Swap the sides when the right side is larger (the standard
  /// preprocessing in the MBE literature). Emitted bicliques are swapped
  /// back, so callers always see their original orientation.
  bool auto_swap_sides = true;

  /// When min_left/min_right > 1, peel the graph to its
  /// (min_left, min_right)-core before any enumeration (graph/reduction.h).
  /// Exact for queries whose size thresholds are at least as strict:
  /// a session running on a reduced engine must have
  /// `mbet.min_left >= min_left && mbet.min_right >= min_right`
  /// (Session::Run rejects looser queries — bicliques below the baked
  /// thresholds are gone from the reduced graph).
  bool core_reduce = true;
  uint32_t min_left = 1;
  uint32_t min_right = 1;

  /// Seed for randomized orders (VertexOrder::kRandom).
  uint64_t seed = 1;

  /// Sanity checks (threshold >= 1). OK options never make Build abort.
  util::Status Validate() const;
};

/// Per-query run configuration, owned by `mbe::Session`.
struct RunOptions {
  Algorithm algorithm = Algorithm::kMbet;

  /// Worker threads for a standalone `Session::Run`: >1 runs the
  /// per-vertex subtree tasks on a private pool of min(threads, tasks)
  /// workers, which requires SupportsParallel(algorithm). Ignored when the
  /// session executes on a shared pool (api/session_pool.h) — the pool
  /// brings the threads.
  unsigned threads = 1;
  /// Ignored (see Scheduling).
  Scheduling scheduling = Scheduling::kStealing;

  /// Ablation switches forwarded to MBET (trie / aggregation / Q pruning),
  /// plus the size thresholds min_left/min_right — stated in the caller's
  /// orientation; the session swaps them when the engine swapped sides.
  MbetOptions mbet;

  /// Workload-adaptive auto-tuning (core/tuner.h, docs/TUNING.md): the
  /// session maps the engine's sampled graph profile through the tuner's
  /// decision table and runs the engine it picks, MBET or BBK, where the
  /// query lets the two interchange (the fields above keep their values;
  /// only the effective run configuration changes).
  /// The decision is recorded in EnumStats::auto_tuned / tuner_rule /
  /// tuned_algorithm. The enumerated set is identical under any decision.
  bool auto_tune = false;

  /// Run control: cooperative cancellation, wall-clock deadline, result /
  /// node budgets, and periodic progress reporting (core/run_control.h).
  /// Default-constructed control never stops a run on its own; the
  /// session's controller still contains failures and honors Cancel.
  RunControl control;

  /// Hard cap, in bytes, on the enumeration memory this run accounts
  /// (scratch arenas, per-node level/trie/bitmap state, sink buffers) —
  /// docs/ROBUSTNESS.md. 0 = unlimited. Past 75% of the cap consumers
  /// degrade gracefully — slower, identical results; past the cap the run
  /// stops with Termination::kMemoryLimit and the sink holds a valid
  /// prefix. The budget is **per session**: each Session charges its own
  /// `util::MemoryBudget` instance, so one session exhausting its cap
  /// never degrades or stops a concurrent neighbor.
  uint64_t max_memory_bytes = 0;

  /// Worker watchdog stall bound in seconds (standalone parallel runs
  /// only; 0 = off). See docs/ROBUSTNESS.md.
  double watchdog_stall_seconds = 0;

  /// Durable checkpointing (docs/CHECKPOINT.md). A non-empty
  /// `checkpoint.path` makes the run frontier-driven: the task frontier is
  /// persisted there periodically and at drain, `checkpoint.resume` picks
  /// a previous snapshot back up (completed subtrees are never re-run),
  /// and `checkpoint.shard_index / shard_count` restrict this process to
  /// its hash shard of the seed space for multi-process runs. Requires a
  /// parallel-capable algorithm (threads may still be 1 — durability and
  /// parallelism are orthogonal).
  snapshot::CheckpointOptions checkpoint;

  /// Checks the options for internal consistency: thread count, parallel
  /// support of the chosen algorithm, size-threshold sanity, run-control
  /// sanity, checkpoint coherence. OK options never make Session::Run
  /// abort.
  util::Status Validate() const;
};

/// Fits `graph` to the query `run`: core reduction stays on (when
/// `graph.core_reduce` asks for it) only for the size-filtering MBET
/// family, baked to the query's thresholds `run.mbet.min_left/min_right`.
/// The other algorithms ignore the thresholds, so a reduced graph would
/// lose bicliques they report. The one-shot facade (api/mbe.h) applies
/// this to every call; other callers that build one engine per query
/// (`pmbe_load`'s upload) derive its options here.
GraphOptions GraphOptionsForRun(GraphOptions graph, const RunOptions& run);

}  // namespace mbe

#endif  // PMBE_API_OPTIONS_H_
