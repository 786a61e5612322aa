#ifndef PMBE_UTIL_MEMORY_H_
#define PMBE_UTIL_MEMORY_H_

#include <atomic>
#include <cstdint>

/// \file
/// Lightweight working-set accounting. The enumerators report the bytes
/// held by their node stacks, candidate arrays, and trie arenas through
/// this tracker so the memory experiments (T8) can compare peak usage
/// without OS-level instrumentation.

namespace mbe::util {

/// Tracks a current and peak byte count. Thread-safe; parallel enumeration
/// workers account into one shared tracker.
class MemoryTracker {
 public:
  /// Records `bytes` newly held.
  void Add(uint64_t bytes) {
    uint64_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Lock-free peak update.
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  /// Records `bytes` released.
  void Sub(uint64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t current() const { return current_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Clears both counters.
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
};

/// Process-wide tracker used when an enumerator is not given its own.
MemoryTracker& GlobalMemoryTracker();

/// A hard memory budget with graceful degradation (docs/ROBUSTNESS.md).
///
/// The enumeration-side allocators — EnumContext scratch arenas, MBET's
/// per-node level/trie/bitmap state, BufferedSink batch arenas — *charge*
/// their bytes here and release them when the capacity is returned. Two
/// thresholds drive the behavior:
///
///  * past the **soft fraction** of the cap, `UnderPressure()` turns true
///    and the degradable consumers shed memory-hungry accelerations:
///    the adaptive set layer stays on sorted lists instead of bitmaps,
///    nodes skip building tries, and sink buffers flush at a fraction of
///    their thresholds. Degradations change performance, never results.
///  * past the **hard cap**, `TryCharge` declines — the charge is rolled
///    back, `exhausted()` latches, and the run's controller converts the
///    next poll into `Termination::kMemoryLimit` with the valid prefix of
///    results emitted so far. Declined charges are never recorded, so
///    `peak()` provably stays <= the cap.
///
/// The cap is enforced on *accounted* bytes at polling granularity: an
/// in-flight allocation completes (the library never fails a malloc
/// mid-recursion), the run just stops cooperatively right after. A cap of
/// 0 disables both thresholds; accounting still runs so `peak()` is always
/// meaningful.
///
/// Thread-safe. Each run (a `mbe::Session`, or one legacy `Enumerate`
/// call) owns its own budget instance and *binds* it to every thread that
/// enumerates on the run's behalf (`ScopedBudgetBinding`); charging sites
/// reach the binding through `CurrentMemoryBudget()`. Attribution is
/// therefore per run: one session exhausting its cap degrades and stops
/// only itself, while a neighbor session's budget — a different instance —
/// is untouched. Threads with no binding fall back to the process-wide
/// instance (`ProcessMemoryBudget()`), preserving the old behavior for
/// code outside any session.
class MemoryBudget {
 public:
  /// Fraction of the hard cap at which degradation starts.
  static constexpr double kSoftFraction = 0.75;

  /// Installs `hard_cap_bytes` (0 = unlimited), re-baselines the peak to
  /// the currently charged bytes, and clears the exhausted latch. Called
  /// by the facade at run start.
  void BeginRun(uint64_t hard_cap_bytes) {
    hard_cap_.store(hard_cap_bytes, std::memory_order_relaxed);
    soft_cap_.store(
        static_cast<uint64_t>(static_cast<double>(hard_cap_bytes) *
                              kSoftFraction),
        std::memory_order_relaxed);
    peak_.store(current_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    exhausted_.store(false, std::memory_order_relaxed);
  }

  /// Removes the cap (accounting keeps running) and clears the latch.
  void EndRun() { BeginRun(0); }

  /// Charges `bytes` against the budget. Returns false — rolling the
  /// charge back and latching `exhausted()` — when a cap is set and the
  /// charge would exceed it; the caller must not Release a declined
  /// charge. Always succeeds when no cap is set.
  bool TryCharge(uint64_t bytes) {
    const uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    const uint64_t cap = hard_cap_.load(std::memory_order_relaxed);
    if (cap > 0 && now > cap) {
      current_.fetch_sub(bytes, std::memory_order_relaxed);
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Returns previously charged bytes.
  void Release(uint64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// True when a cap is set and charged bytes passed the soft fraction:
  /// consumers should degrade (see class comment).
  bool UnderPressure() const {
    const uint64_t soft = soft_cap_.load(std::memory_order_relaxed);
    return soft > 0 &&
           current_.load(std::memory_order_relaxed) >= soft;
  }

  /// Latched when a charge was declined (or a fault forced exhaustion);
  /// cleared by BeginRun/EndRun. RunController polls this at checkpoints.
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// Fault-injection hook: makes the budget report exhaustion as if a
  /// charge had been declined, exercising the kMemoryLimit path.
  void ForceExhaust() { exhausted_.store(true, std::memory_order_relaxed); }

  /// Degradation accounting (EnumStats::degradations).
  void NoteDegradation() {
    degradations_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t degradations() const {
    return degradations_.load(std::memory_order_relaxed);
  }

  uint64_t hard_cap() const {
    return hard_cap_.load(std::memory_order_relaxed);
  }
  uint64_t charged() const {
    return current_.load(std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Diagnostic tag: the session the budget accounts for (0 = untagged /
  /// process-wide). Surfaced in serve-side accounting and error messages.
  void set_session_id(uint64_t id) {
    session_id_.store(id, std::memory_order_relaxed);
  }
  uint64_t session_id() const {
    return session_id_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> hard_cap_{0};
  std::atomic<uint64_t> soft_cap_{0};
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<uint64_t> degradations_{0};
  std::atomic<uint64_t> session_id_{0};
};

/// The process-wide default budget: what `CurrentMemoryBudget()` resolves
/// to on threads with no binding. Unlimited unless someone calls BeginRun
/// on it (the legacy single-run flow no longer does — each run brings its
/// own instance).
MemoryBudget& ProcessMemoryBudget();

/// The budget bound to the calling thread by the innermost live
/// ScopedBudgetBinding, or ProcessMemoryBudget() when none is bound. This
/// is the instance every charging site (arena growth, node state, sink
/// buffers) accounts into — one thread-local load, safe on any thread.
MemoryBudget& CurrentMemoryBudget();

/// Binds `budget` to the calling thread for the binding's lifetime
/// (nullptr re-binds the process default). A run binds its budget on every
/// thread that allocates on its behalf: the session thread around the
/// whole run, and each parallel worker around its main loop. Bindings
/// nest; destruction restores the previous binding. Charges and releases
/// must pair up under the same binding — the library guarantees this by
/// scoping every charging object (engine scratch, sink buffers) inside the
/// bound region.
class ScopedBudgetBinding {
 public:
  explicit ScopedBudgetBinding(MemoryBudget* budget);
  ~ScopedBudgetBinding();
  ScopedBudgetBinding(const ScopedBudgetBinding&) = delete;
  ScopedBudgetBinding& operator=(const ScopedBudgetBinding&) = delete;

 private:
  MemoryBudget* previous_;
};

/// RAII charge: charges `bytes` to `budget` (and `tracker`, if given) on
/// construction and returns them on destruction. The release must be
/// exception-safe — an exception unwinding through an enumeration node
/// (throwing sink, injected fault) would otherwise leak the charge into
/// the process-wide budget and poison every later run's accounting.
class ScopedCharge {
 public:
  ScopedCharge(MemoryBudget& budget, MemoryTracker* tracker, uint64_t bytes)
      : budget_(budget),
        tracker_(tracker),
        bytes_(bytes),
        charged_(budget.TryCharge(bytes)) {
    if (tracker_ != nullptr) tracker_->Add(bytes_);
  }
  ~ScopedCharge() {
    if (tracker_ != nullptr) tracker_->Sub(bytes_);
    if (charged_) budget_.Release(bytes_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// False when the budget declined the charge (exhaustion latched).
  bool charged() const { return charged_; }

 private:
  MemoryBudget& budget_;
  MemoryTracker* tracker_;
  uint64_t bytes_;
  bool charged_;
};

}  // namespace mbe::util

#endif  // PMBE_UTIL_MEMORY_H_
