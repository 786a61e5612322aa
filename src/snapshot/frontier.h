#ifndef PMBE_SNAPSHOT_FRONTIER_H_
#define PMBE_SNAPSHOT_FRONTIER_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/common.h"
#include "util/status.h"

/// \file
/// The durable task frontier: a first-class, serializable view of a
/// durable run's outstanding work (docs/CHECKPOINT.md).
///
/// The unit of parallel work is an independently re-runnable subtree
/// task, encoded as one 64-bit task word (EncodeTask below). A durable
/// `Session` owns one `TaskFrontier`; the session pool
/// (api/session_pool.h) claims the frontier's live tasks in ascending
/// order and commits each finished one here. `TaskFrontier` tracks every
/// task's lifecycle:
///
///  * **live** — seeded, not yet finished. Live tasks include in-flight
///    ones: a snapshot taken while a task is executing records it live,
///    and a resumed run re-executes it from scratch (its digest was never
///    committed, so nothing is counted twice).
///  * **completed** — finished exactly once, with an order-independent
///    result digest `(sum, xor, count)` over the task's emitted bicliques
///    (the same commutative accumulators as core/sink.h FingerprintSink).
///
/// Because every emitted biclique belongs to exactly one completed task
/// and the accumulators are commutative, the fold over all completed-task
/// digests is independent of thread count, claim order, and process
/// sharding. Two runs (or a run resumed across N crashes, or N process
/// shards merged) that completed the same enumeration produce
/// bit-identical merged digests. That is the restart-correctness proof
/// scripts/check.sh exercises.
///
/// Every transition (seed, complete) is atomic under one mutex, so a
/// snapshot taken at ANY moment is consistent: each task is either live or
/// completed, never both, never lost. No global quiescence is needed —
/// "quiescent-point" checkpoints only mean each individual transition is
/// quiescent.
///
/// The binary serialization (EncodeSnapshot/DecodeSnapshot) follows the
/// serve/wire.cc codec discipline: little-endian, versioned, total
/// decoding (any byte string yields a snapshot or a typed
/// InvalidArgument/CorruptData, never a crash), and canonical — a decoded
/// snapshot re-encodes to exactly the input bytes, which the fuzzer
/// (tools/fuzz_frontier.cc) relies on to detect silent coercions.

namespace mbe {

/// One unit of enumeration work — the whole subtree of seed vertex v —
/// encoded into a single 64-bit word:
///   bits [32, 64): subtree seed vertex v
///   bits [16, 32): shard index, always 0
///   bits [ 0, 16): shard count, always 1
/// The shard bits are left over from subtree splitting, which no scheduler
/// does any more. They stay because snapshot files store task words
/// verbatim: keeping the packing lets every snapshot an earlier unsplit
/// run wrote resume unchanged, while a word with other shard bits is
/// recognizable — and refused — at restore.
constexpr uint64_t EncodeTask(VertexId v) {
  return (static_cast<uint64_t>(v) << 32) | 1;
}

constexpr VertexId TaskVertex(uint64_t word) {
  return static_cast<VertexId>(word >> 32);
}

/// True when `word` is a whole-subtree task (shard 0 of 1).
constexpr bool IsSubtreeTask(uint64_t word) {
  return (word & 0xffffffffULL) == 1;
}

// The snapshot file format persists these words verbatim, so the packing
// is an on-disk contract. Pin it.
static_assert(EncodeTask(0xdeadbeefu) == 0xdeadbeef00000001ULL,
              "task packing must stay v:[32,64) shard:[16,32) k:[0,16)");
static_assert(TaskVertex(0xdeadbeef00000001ULL) == 0xdeadbeefu &&
                  IsSubtreeTask(0xdeadbeef00000001ULL) &&
                  !IsSubtreeTask(0xdeadbeef00010002ULL),
              "task unpacking must invert the packing bit-exactly");

}  // namespace mbe

namespace mbe::snapshot {

/// File magic "PMBF" (little-endian) and the current format version.
/// Decoding rejects other versions with InvalidArgument (version skew is
/// an environment error, not corruption).
inline constexpr uint32_t kSnapshotMagic = 0x46424d50u;  // "PMBF"
inline constexpr uint32_t kSnapshotVersion = 1;

/// Hard bound on tasks per section; a corrupt count cannot trigger a
/// giant allocation (also re-checked against the remaining byte count).
inline constexpr uint64_t kMaxSnapshotTasks = 1ull << 32;

/// Commutative result digest of one completed task: sum and xor of the
/// per-biclique hashes (core/biclique.h HashBiclique) plus the count.
struct TaskDigest {
  uint64_t sum = 0;
  uint64_t xr = 0;
  uint64_t count = 0;

  /// Folds another digest in (commutative and associative).
  void Merge(const TaskDigest& other) {
    sum += other.sum;
    xr ^= other.xr;
    count += other.count;
  }

  /// Folds the three accumulators into one comparable value, exactly like
  /// FingerprintSink::Digest so a frontier digest can be cross-checked
  /// against a whole-run fingerprint.
  uint64_t Value() const {
    uint64_t d = sum;
    d = d * 0x9e3779b97f4a7c15ULL + xr;
    d = d * 0x9e3779b97f4a7c15ULL + count;
    return d;
  }

  friend bool operator==(const TaskDigest&, const TaskDigest&) = default;
};

/// One completed-task record of a snapshot.
struct CompletedTask {
  uint64_t task = 0;  ///< encoded task word (EncodeTask)
  TaskDigest digest;

  friend bool operator==(const CompletedTask&, const CompletedTask&) = default;
};

/// A serializable frontier state: header (what run this is), the live
/// task set, and the completed-task log. The in-memory mirror of one
/// snapshot file.
struct FrontierSnapshot {
  /// mbe::Algorithm numeric value of the enumerating engine. A snapshot
  /// only resumes onto the same algorithm — per-task digests are an
  /// engine's output.
  uint8_t algorithm = 0;

  /// True when the run drained every task (pending is empty). A complete
  /// snapshot resumes to a no-op, making resume idempotent.
  bool complete = false;

  /// Process-shard coordinates: this frontier holds the seeds v with
  /// ShardOfSeed(v, shard_count) == shard_index. (0, 1) = unsharded.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;

  /// Fingerprint of the preprocessed graph the tasks refer to. Resume
  /// refuses a snapshot whose fingerprint does not match the graph built
  /// by the resuming process (task words index into this exact graph).
  uint64_t graph_left = 0;
  uint64_t graph_right = 0;
  uint64_t graph_edges = 0;
  uint64_t graph_hash = 0;

  /// Live tasks (pending + in-flight at snapshot time), strictly
  /// ascending encoded words.
  std::vector<uint64_t> pending;

  /// Completed-task log, strictly ascending by task word.
  std::vector<CompletedTask> completed;

  /// Fold of all completed-task digests (schedule independent; see file
  /// comment).
  TaskDigest MergedDigest() const {
    TaskDigest d;
    for (const CompletedTask& c : completed) d.Merge(c.digest);
    return d;
  }

  friend bool operator==(const FrontierSnapshot&,
                         const FrontierSnapshot&) = default;
};

/// Deterministic fingerprint of a preprocessed graph: sizes plus a hash
/// of the full right-side adjacency. Two graphs with equal fingerprints
/// came (for resume purposes) from the same input and preprocessing.
uint64_t GraphFingerprint(const BipartiteGraph& graph);

/// Which process shard of `shard_count` owns seed vertex `v`
/// (splitmix64-mixed so consecutive ids spread across shards).
uint32_t ShardOfSeed(VertexId v, uint32_t shard_count);

/// Appends the canonical binary encoding of `snap` to `*out`. Fails
/// (leaving `*out` untouched) when the snapshot violates its own
/// invariants (unsorted/duplicate tasks, invalid task words, overlap
/// between pending and completed, complete with pending tasks).
util::Status EncodeSnapshot(const FrontierSnapshot& snap,
                            std::vector<uint8_t>* out);

/// Decodes one snapshot. Total: any input yields a snapshot or a typed
/// error — InvalidArgument for a version skew, CorruptData for anything
/// structurally wrong (bad magic, truncation, checksum mismatch,
/// non-canonical ordering, invalid task words, trailing bytes). Valid
/// encodings round-trip byte-identically.
util::StatusOr<FrontierSnapshot> DecodeSnapshot(
    std::span<const uint8_t> bytes);

/// The thread-safe live frontier of one durable session.
/// Header fields (algorithm, shard coordinates, graph fingerprint) are
/// fixed at construction; task state transitions are serialized by one
/// internal mutex so any concurrent BuildSnapshot observes a consistent
/// frontier.
class TaskFrontier {
 public:
  TaskFrontier(uint8_t algorithm, uint32_t shard_index, uint32_t shard_count,
               const BipartiteGraph& graph);

  TaskFrontier(const TaskFrontier&) = delete;
  TaskFrontier& operator=(const TaskFrontier&) = delete;

  /// Seeds one live whole-subtree task. Aborts on any other word or a
  /// duplicate (seeding is session setup, not untrusted input).
  void AddPending(uint64_t task);

  /// Replaces the frontier's state with a decoded snapshot: pending tasks
  /// become live, the completed log is preloaded so finished subtrees are
  /// never re-run and their digests count exactly once. Fails with
  /// InvalidArgument, leaving the frontier untouched, when the snapshot's
  /// header does not match this frontier (different algorithm, shard
  /// coordinates, or graph) or when any task word is not a whole subtree
  /// in range (a split-subtree word from an earlier writer).
  util::Status Restore(const FrontierSnapshot& snap);

  /// Retires live task `task` with its result digest. Aborts if the task
  /// is not live (every task completes exactly once).
  void MarkCompleted(uint64_t task, const TaskDigest& digest);

  /// The live tasks, in ascending order (the order the pool claims them).
  std::vector<uint64_t> PendingTasks() const;

  size_t pending_count() const;
  size_t completed_count() const;

  /// Fold of all completed-task digests so far.
  TaskDigest MergedDigest() const;

  /// Consistent point-in-time snapshot (complete = no live tasks).
  FrontierSnapshot BuildSnapshot() const;

 private:
  const uint8_t algorithm_;
  const uint32_t shard_index_;
  const uint32_t shard_count_;
  const uint64_t graph_left_;
  const uint64_t graph_right_;
  const uint64_t graph_edges_;
  const uint64_t graph_hash_;

  mutable std::mutex mu_;
  std::unordered_set<uint64_t> live_;
  std::unordered_map<uint64_t, TaskDigest> completed_;
};

}  // namespace mbe::snapshot

#endif  // PMBE_SNAPSHOT_FRONTIER_H_
