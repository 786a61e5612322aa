#ifndef PMBE_SNAPSHOT_CHECKPOINT_H_
#define PMBE_SNAPSHOT_CHECKPOINT_H_

#include <atomic>
#include <span>
#include <string>

#include "snapshot/frontier.h"
#include "util/status.h"

/// \file
/// Durable snapshot files: crash-safe persistence of a TaskFrontier and
/// the merge step that folds per-process shard files back into one result
/// (docs/CHECKPOINT.md).
///
/// Write discipline: encode → write to `path + ".tmp"` → fsync → rename
/// over `path` → fsync the directory. A reader therefore sees either the
/// previous complete snapshot or the new complete snapshot, never a torn
/// one — a SIGKILL at any instant leaves a resumable file. The checksum
/// inside the encoding (snapshot/frontier.h) additionally catches storage
/// corruption between write and resume.

namespace mbe::snapshot {

/// Caller-facing checkpoint configuration, carried through RunOptions into
/// the durable session. Default-constructed options disable checkpointing
/// entirely (the frontier machinery is never built).
struct CheckpointOptions {
  /// Snapshot file path; empty disables checkpointing. Periodic snapshots
  /// and the final state land here (via the atomic tmp+rename protocol).
  std::string path;

  /// Seconds between periodic snapshots; 0 disables the periodic writes
  /// (the final snapshot at drain is always written regardless, so 0 =
  /// "final snapshot only" — no mid-run crash protection).
  double every_s = 30.0;

  /// Resume from `path` instead of seeding a fresh frontier: completed
  /// tasks are never re-run (their logged digests count exactly once) and
  /// only live tasks are re-enqueued.
  bool resume = false;

  /// Process-shard coordinates: this process seeds only the subtree tasks
  /// with ShardOfSeed(v, shard_count) == shard_index. (0, 1) = the whole
  /// frontier. Shard runs write per-shard snapshot files that
  /// MergeSnapshots folds back together.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;

  /// Optional checkpoint-stop token (e.g. set by a SIGTERM handler): when
  /// it becomes true the run stops with Termination::kCheckpointed after
  /// writing a final snapshot, the durable analog of cancellation.
  const std::atomic<bool>* checkpoint_stop = nullptr;

  bool enabled() const { return !path.empty(); }
};

/// Writes `snap` to `path` via the atomic tmp+rename protocol above.
/// Returns IoError on any filesystem failure (the previous snapshot at
/// `path`, if any, is left intact).
util::Status WriteSnapshotFile(const std::string& path,
                               const FrontierSnapshot& snap);

/// Reads and decodes one snapshot file. IoError when unreadable;
/// otherwise DecodeSnapshot's typed errors.
util::StatusOr<FrontierSnapshot> ReadSnapshotFile(const std::string& path);

/// Merges the per-process shard snapshots of one sharded run into a
/// single unsharded snapshot, cross-checking consistency: every shard
/// must be complete, agree on algorithm and graph fingerprint, declare
/// the same shard_count, and together form the full 0..N-1 partition
/// with disjoint task sets. The merged digest equals a single-process
/// run's (the digests are commutative; see snapshot/frontier.h).
util::StatusOr<FrontierSnapshot> MergeSnapshots(
    std::span<const FrontierSnapshot> shards);

}  // namespace mbe::snapshot

#endif  // PMBE_SNAPSHOT_CHECKPOINT_H_
