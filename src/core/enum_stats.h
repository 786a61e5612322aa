#ifndef PMBE_CORE_ENUM_STATS_H_
#define PMBE_CORE_ENUM_STATS_H_

#include <cstdint>

/// \file
/// Counters shared by all enumerators. The pruning-efficiency table (T3)
/// and the ablation figure (F4) are computed from these, and the tests use
/// them to assert structural properties (e.g. aggregation strictly reduces
/// the number of generated nodes).

namespace mbe {

/// Per-run enumeration counters. Additive: MergeFrom combines the counters
/// of parallel workers.
struct EnumStats {
  /// Enumeration-tree nodes whose child generation was attempted.
  uint64_t nodes_expanded = 0;
  /// Children that passed the maximality check (== bicliques emitted).
  uint64_t maximal = 0;
  /// Children that failed the maximality check (wasted work the paper's
  /// techniques aim to avoid).
  uint64_t non_maximal = 0;
  /// Candidate groups dropped because their local neighborhood became empty.
  uint64_t candidates_dropped = 0;
  /// Candidate groups absorbed directly into R' (full local neighborhood).
  uint64_t candidates_absorbed = 0;
  /// Vertices merged away by equivalence-class aggregation.
  uint64_t vertices_aggregated = 0;
  /// Trie nodes visited across all classification passes (the prefix-tree
  /// cost measure).
  uint64_t trie_probes = 0;
  /// Sum of |loc| over the same classification passes (what a direct,
  /// per-candidate scan would have probed). trie_probes <= local_scan_size,
  /// with the gap measuring shared-prefix savings.
  uint64_t local_scan_size = 0;
  /// Subtrees skipped entirely at the root because an earlier vertex
  /// dominates the root's L.
  uint64_t subtrees_pruned = 0;
  /// Sorted-list -> bitmap materializations: MBET's per-node density
  /// policy and BBK's per-node L' bitmaps (docs/SET_REPRESENTATION.md).
  uint64_t bitmap_conversions = 0;
  /// Intersections answered by the word-AND bitmap kernels instead of a
  /// merge/gallop over sorted lists.
  uint64_t bitmap_kernel_calls = 0;
  /// Always 0: the batched candidate frontier that counted here is gone.
  /// Stays until a benchmark change stops reading it.
  uint64_t batch_candidates_classified = 0;
  /// Instruction-set level of the vectorized kernel table the run
  /// dispatched to (numeric simd::DispatchLevel: 0 scalar, 1 sse4.2,
  /// 2 avx2). NOT additive: merged via max (workers share one process-wide
  /// dispatch).
  uint64_t kernel_dispatch = 0;
  /// Calls dispatched through the vectorized kernel table, by family
  /// (util/simd.h KernelOp), by this run's own workers: each worker diffs
  /// its thread's counters around every enumeration call, so concurrent
  /// sessions never count each other's calls. Tiny operands served by
  /// inline scalar loops are not counted.
  uint64_t simd_intersect_calls = 0;
  /// mask_count / mask_filter (membership-mask probe) family.
  uint64_t simd_mask_calls = 0;
  /// and_count (bitmap word) family.
  uint64_t simd_word_calls = 0;
  /// Always 0: the batched multi-mask kernel family is gone. Stays until a
  /// benchmark change stops reading it.
  uint64_t simd_batch_calls = 0;
  /// High-water mark of the per-thread EnumContext scratch arenas, in
  /// bytes. NOT additive: merged via max (workers' arenas coexist, but
  /// the per-thread peak is the capacity-planning number).
  uint64_t arena_peak_bytes = 0;
  /// Always 0: nothing steals, every worker claims from the session
  /// pool's shared cursor. Stays until a benchmark change stops reading it.
  uint64_t steals = 0;
  /// Always 0: subtree splitting is gone, every task is one whole
  /// subtree. Stays until a benchmark change stops reading it.
  uint64_t split_tasks = 0;
  /// Batched flushes performed by the per-worker BufferedSinks; together
  /// with `maximal` this gives the emissions-per-lock amortization.
  uint64_t sink_flushes = 0;
  /// Wall time session-pool workers spent executing this run's subtree
  /// tasks, summed over workers, in nanoseconds (0 for the inline
  /// one-thread run).
  uint64_t busy_ns = 0;
  /// Wall time the workers of a standalone run's private pool spent not
  /// executing its tasks (start-up, claiming, waiting for the last task),
  /// summed over workers, in nanoseconds. busy/(busy+idle) is the
  /// load-balance figure of merit. 0 on a shared pool, whose workers are
  /// not one run's.
  uint64_t idle_ns = 0;
  /// Faults fired by the injection framework during the run (0 unless the
  /// build defines PMBE_FAULT_INJECTION and a point is armed).
  uint64_t faults_injected = 0;
  /// Times a consumer shed a memory-hungry acceleration because the
  /// memory budget was under pressure (declined bitmap, skipped trie,
  /// shrunken sink buffer).
  uint64_t degradations = 0;
  /// High-water mark of bytes charged to the run's MemoryBudget. NOT
  /// additive: merged via max (all workers charge one shared budget).
  /// Provably <= RunOptions::max_memory_bytes when a cap is set.
  uint64_t peak_charged_bytes = 0;
  /// Heartbeat sweeps performed by the worker watchdog monitor.
  uint64_t watchdog_checks = 0;
  /// Time from submission to a session pool (api/session_pool.h) until the
  /// run's first task was claimed, in nanoseconds; a served session adds
  /// its admission wait. For a standalone run this is only its private
  /// pool's start-up (microseconds); 0 for the inline one-thread run.
  uint64_t queue_wait_ns = 0;
  /// Frontier snapshots persisted by a checkpointing run (periodic plus
  /// the final one at drain; snapshot/checkpoint.h).
  uint64_t checkpoints_written = 0;
  /// 1 when the workload-adaptive auto-tuner picked this run's knobs
  /// (RunOptions::auto_tune; docs/TUNING.md). NOT additive: merged via
  /// max, like the other run-level (not per-worker) fields below.
  uint64_t auto_tuned = 0;
  /// Bitmap density the tuner chose (valid only when auto_tuned; stored
  /// ×1000 to stay integral). NOT additive: merged via max.
  uint64_t tuned_bitmap_density_x1000 = 0;
  /// Decision-table row the tuner matched (core/tuner.h TunerRule numeric
  /// value; 0 = none). NOT additive: merged via max.
  uint64_t tuner_rule = 0;
  /// Engine the tuner selected AND the session honored (core/tuner.h
  /// TunerEngine numeric value; 0 = no engine override — untuned run, or
  /// the query pinned its engine / was not engine-interchangeable). NOT
  /// additive: merged via max.
  uint64_t tuned_algorithm = 0;

  void MergeFrom(const EnumStats& other) {
    nodes_expanded += other.nodes_expanded;
    maximal += other.maximal;
    non_maximal += other.non_maximal;
    candidates_dropped += other.candidates_dropped;
    candidates_absorbed += other.candidates_absorbed;
    vertices_aggregated += other.vertices_aggregated;
    trie_probes += other.trie_probes;
    local_scan_size += other.local_scan_size;
    subtrees_pruned += other.subtrees_pruned;
    bitmap_conversions += other.bitmap_conversions;
    bitmap_kernel_calls += other.bitmap_kernel_calls;
    if (other.kernel_dispatch > kernel_dispatch) {
      kernel_dispatch = other.kernel_dispatch;
    }
    simd_intersect_calls += other.simd_intersect_calls;
    simd_mask_calls += other.simd_mask_calls;
    simd_word_calls += other.simd_word_calls;
    if (other.arena_peak_bytes > arena_peak_bytes) {
      arena_peak_bytes = other.arena_peak_bytes;
    }
    steals += other.steals;
    sink_flushes += other.sink_flushes;
    busy_ns += other.busy_ns;
    idle_ns += other.idle_ns;
    faults_injected += other.faults_injected;
    degradations += other.degradations;
    if (other.peak_charged_bytes > peak_charged_bytes) {
      peak_charged_bytes = other.peak_charged_bytes;
    }
    watchdog_checks += other.watchdog_checks;
    queue_wait_ns += other.queue_wait_ns;
    checkpoints_written += other.checkpoints_written;
    if (other.auto_tuned > auto_tuned) auto_tuned = other.auto_tuned;
    if (other.tuned_bitmap_density_x1000 > tuned_bitmap_density_x1000) {
      tuned_bitmap_density_x1000 = other.tuned_bitmap_density_x1000;
    }
    if (other.tuner_rule > tuner_rule) tuner_rule = other.tuner_rule;
    if (other.tuned_algorithm > tuned_algorithm) {
      tuned_algorithm = other.tuned_algorithm;
    }
  }
};

}  // namespace mbe

#endif  // PMBE_CORE_ENUM_STATS_H_
