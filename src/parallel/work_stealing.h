#ifndef PMBE_PARALLEL_WORK_STEALING_H_
#define PMBE_PARALLEL_WORK_STEALING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/common.h"

/// \file
/// The work-stealing substrate of the parallel driver: per-worker
/// Chase–Lev deques holding encoded subtree tasks, plus the task encoding
/// shared with the scheduler in parallel_mbe.cc and the durable frontier.
///
/// Why stealing? The per-vertex subtree decomposition is heavily skewed on
/// real bipartite graphs: a few hub subtrees hold much of the enumeration
/// work. Seeding every worker's deque heaviest-first and letting idle
/// workers take queued subtrees from busy ones keeps the fleet fed without
/// a shared counter every claim contends on. Every task is one whole
/// subtree; the driver never splits a subtree (docs/PARALLELISM.md
/// records the measurements behind that).
///
/// The deque is the Chase–Lev design in the formulation of Lê et al.,
/// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP
/// 2013): the owner pushes and pops at the *bottom* (LIFO, cache-warm),
/// thieves CAS the *top* (FIFO, oldest task first). All shared state is
/// accessed through std::atomic — there are no fence-published plain
/// loads — so ThreadSanitizer can verify the protocol (the TSan leg of
/// scripts/check.sh runs the deque stress tests on every CI pass).

namespace mbe {

/// One unit of enumeration work — the whole subtree of seed vertex v —
/// encoded into a single 64-bit word so the deque slots can be lock-free
/// std::atomic<uint64_t>:
///   bits [32, 64): subtree seed vertex v
///   bits [16, 32): shard index, always 0
///   bits [ 0, 16): shard count, always 1
/// The shard bits are left over from subtree splitting, which the driver
/// no longer does. They stay because snapshot files (snapshot/frontier.h)
/// store task words verbatim: keeping the packing lets every snapshot an
/// earlier unsplit run wrote resume unchanged, while a word with other
/// shard bits is recognizable — and refused — at restore.
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

// The frontier snapshot file format persists these words verbatim, so
// the packing is an on-disk contract. Pin it.
static_assert(EncodeTask(0xdeadbeefu) == 0xdeadbeef00000001ULL,
              "task packing must stay v:[32,64) shard:[16,32) k:[0,16)");
static_assert(TaskVertex(0xdeadbeef00000001ULL) == 0xdeadbeefu &&
                  IsSubtreeTask(0xdeadbeef00000001ULL) &&
                  !IsSubtreeTask(0xdeadbeef00010002ULL),
              "task unpacking must invert the packing bit-exactly");

/// Chase–Lev work-stealing deque of encoded tasks.
///
/// Thread roles: exactly one *owner* thread may call Push/Pop; any number
/// of *thief* threads may call Steal concurrently. The owner works LIFO
/// at the bottom; thieves take the oldest task at the top, so with
/// heaviest-last seeding the owner starts on its heaviest subtree while
/// thieves drain the light tail.
///
/// Each slot is padded to its own cache line: top and bottom move through
/// the ring from opposite ends, and unpadded neighbouring slots would
/// false-share between the owner's store and a thief's load.
class TaskDeque {
 public:
  /// `capacity_hint` sizes the initial ring (rounded up to a power of
  /// two). Push grows the ring when full; retired rings are kept alive
  /// until destruction so a racing thief never reads freed memory.
  explicit TaskDeque(size_t capacity_hint = 64);

  /// Owner only: appends a task at the bottom, growing if needed.
  void Push(uint64_t task);

  /// Owner only: takes the most recently pushed task. Returns false when
  /// the deque is empty (including losing the last-element race to a
  /// thief).
  bool Pop(uint64_t* task);

  /// Thieves: takes the oldest task. Returns false when empty or when the
  /// CAS race against the owner/another thief is lost (the caller just
  /// retries elsewhere; spurious failure is part of the protocol).
  bool Steal(uint64_t* task);

  /// Approximate size; safe from any thread (diagnostics only).
  size_t SizeEstimate() const;

 private:
  /// One task per cache line (see class comment).
  struct alignas(64) Slot {
    std::atomic<uint64_t> word{0};
  };

  struct Ring {
    explicit Ring(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    uint64_t Load(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].word.load(
          std::memory_order_relaxed);
    }
    void Store(int64_t i, uint64_t word) {
      slots[static_cast<size_t>(i) & mask].word.store(
          word, std::memory_order_relaxed);
    }
    const size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  /// Owner only: doubles the ring, copying live tasks. The old ring is
  /// retired (kept allocated) rather than freed: a thief that loaded the
  /// old ring pointer may still read a stale slot, then fail its top CAS
  /// and retry against the new ring.
  void Grow(Ring* ring, int64_t bottom, int64_t top);

  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  alignas(64) std::atomic<Ring*> ring_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< current + retired (owner)
};

}  // namespace mbe

#endif  // PMBE_PARALLEL_WORK_STEALING_H_
