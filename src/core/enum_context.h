#ifndef PMBE_CORE_ENUM_CONTEXT_H_
#define PMBE_CORE_ENUM_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/common.h"

/// \file
/// Per-thread scratch pooling for the enumeration engines.
///
/// Every engine's recursion needs a handful of `std::vector` work buffers
/// per node (candidate intersections, closure sets, bitmap words). Before
/// this layer each engine allocated them fresh at every node — the
/// allocation churn BBK (PAPERS.md) identifies as a dominant cost.
/// `EnumContext` owns the buffers instead:
///
///  * `AcquireIds()` / `AcquireWords()` hand out pooled vectors whose
///    capacity survives across nodes and runs;
///  * `Checkpoint()` / `Rewind(cp)` bracket one recursion depth: rewinding
///    returns every buffer acquired since the checkpoint to the pool,
///    with whatever capacity it grew to;
///  * `Frame` is the RAII form engines put on the stack per recursive call.
///
/// Buffers are heap-boxed (`unique_ptr`), so pointers and spans into a
/// buffer stay valid while its frame is live even as other buffers are
/// acquired. They must NOT outlive the frame: `paranoid` mode frees the
/// underlying allocation on rewind instead of pooling it, so any escaped
/// span turns into a use-after-free that ASan reports (enum_context_test
/// runs under the scripts/check.sh sanitizer leg to prove the engines
/// clean).
///
/// One EnumContext serves one thread; the session pool gives each worker
/// its own, same as the per-worker engine instances.

namespace mbe {

class EnumContext {
 public:
  struct Checkpoint {
    size_t ids_top = 0;
    size_t words_top = 0;
  };

  /// Buffers currently handed out (0 when all frames have unwound).
  size_t live_buffers() const { return ids_.top + words_.top; }

  /// The pool's capacity growth is charged to the calling thread's bound
  /// MemoryBudget. `paranoid` frees buffers on rewind (see file comment) —
  /// test-only, pooling wins disappear.
  explicit EnumContext(bool paranoid = false);
  ~EnumContext();

  EnumContext(const EnumContext&) = delete;
  EnumContext& operator=(const EnumContext&) = delete;

  /// A cleared `VertexId` buffer, valid until the enclosing frame rewinds.
  std::vector<VertexId>* AcquireIds();

  /// A cleared `uint64_t` word buffer (for bitmap scratch), same lifetime.
  std::vector<uint64_t>* AcquireWords();

  Checkpoint MakeCheckpoint() const;

  /// Returns every buffer acquired since `cp` to the pool. Buffers from
  /// deeper, already-rewound frames must not be touched afterwards.
  void Rewind(const Checkpoint& cp);

  /// RAII checkpoint/rewind for one recursion depth.
  class Frame {
   public:
    explicit Frame(EnumContext* ctx) : ctx_(ctx), cp_(ctx->MakeCheckpoint()) {}
    ~Frame() { ctx_->Rewind(cp_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    std::vector<VertexId>* AcquireIds() { return ctx_->AcquireIds(); }
    std::vector<uint64_t>* AcquireWords() { return ctx_->AcquireWords(); }

   private:
    EnumContext* ctx_;
    Checkpoint cp_;
  };

  /// Bytes of vector capacity currently held by the pool.
  uint64_t held_bytes() const { return held_bytes_; }

  /// High-water mark of held_bytes() over this context's lifetime
  /// (feeds the `arena_peak_bytes` stat).
  uint64_t peak_bytes() const { return peak_bytes_; }

  /// Releases all pooled capacity back to the allocator (frames must be
  /// unwound). Peak accounting is kept.
  void Trim();

  /// Makes every EnumContext constructed afterwards paranoid, regardless of
  /// its constructor argument. Lets tests run the real engines (which build
  /// their contexts internally) in free-on-rewind mode under ASan, turning
  /// any scratch buffer escaping its frame into a reported use-after-free.
  static void SetParanoidForTesting(bool on);

 private:
  // Stable-address stack: `bufs[0, top)` are handed out, `bufs[top, size)`
  // pooled for reuse. `bytes[i]` is the capacity last recorded for
  // `bufs[i]` — growth while handed out is observed (and accounted) at
  // rewind time.
  template <typename T>
  struct Pool {
    std::vector<std::unique_ptr<std::vector<T>>> bufs;
    std::vector<uint64_t> bytes;
    size_t top = 0;
  };

  template <typename T>
  std::vector<T>* Acquire(Pool<T>* pool);
  template <typename T>
  void RewindPool(Pool<T>* pool, size_t to);
  template <typename T>
  void TrimPool(Pool<T>* pool);

  /// Returns up to `freed` bytes to the bound MemoryBudget, bounded by
  /// what this context successfully charged (declined charges are not
  /// recorded, so releases stay balanced).
  void ReleaseBudget(uint64_t freed);

  Pool<VertexId> ids_;
  Pool<uint64_t> words_;

  bool paranoid_;
  uint64_t held_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
  /// Bytes this context successfully charged to the bound MemoryBudget.
  uint64_t budget_charged_ = 0;
};

}  // namespace mbe

#endif  // PMBE_CORE_ENUM_CONTEXT_H_
