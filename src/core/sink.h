#ifndef PMBE_CORE_SINK_H_
#define PMBE_CORE_SINK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/biclique.h"
#include "util/common.h"

/// \file
/// Result sinks: where enumerated maximal bicliques go. Enumerators call
/// `Emit(left, right)` with sorted spans valid only for the duration of the
/// call; sinks copy what they need. All sinks here are thread-safe so the
/// same sink can be shared by the session pool's workers — except
/// `BufferedSink`, which is explicitly worker-local (see its comment).
///
/// Batching: `ResultSink::EmitBatch` delivers many bicliques in one call so
/// a sink can amortize its synchronization (one lock acquisition / one
/// atomic round per batch instead of per biclique). The session pool
/// wraps the shared sink in one `BufferedSink` per worker, which
/// accumulates emissions in worker-local storage and flushes them as a
/// batch; sinks that don't override EmitBatch transparently fall back to
/// per-biclique Emit.

namespace mbe {

/// A flat, append-only batch of bicliques: all vertex ids live in one
/// arena, entries are (offset, lengths) records. Copy-free to walk,
/// cache-friendly to fill.
class BicliqueBatch {
 public:
  void Append(std::span<const VertexId> left, std::span<const VertexId> right) {
    Entry e;
    e.off = static_cast<uint32_t>(ids_.size());
    e.l_len = static_cast<uint32_t>(left.size());
    e.r_len = static_cast<uint32_t>(right.size());
    ids_.insert(ids_.end(), left.begin(), left.end());
    ids_.insert(ids_.end(), right.begin(), right.end());
    entries_.push_back(e);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Arena bytes held (the flush-by-bytes threshold input).
  size_t bytes() const {
    return ids_.size() * sizeof(VertexId) + entries_.size() * sizeof(Entry);
  }
  /// Arena bytes reserved (capacity; the memory-budget charging input —
  /// clear() keeps capacity, so this is what the batch really holds).
  size_t capacity_bytes() const {
    return ids_.capacity() * sizeof(VertexId) +
           entries_.capacity() * sizeof(Entry);
  }
  void clear() {
    ids_.clear();
    entries_.clear();
  }

  std::span<const VertexId> left(size_t i) const {
    const Entry& e = entries_[i];
    return {ids_.data() + e.off, e.l_len};
  }
  std::span<const VertexId> right(size_t i) const {
    const Entry& e = entries_[i];
    return {ids_.data() + e.off + e.l_len, e.r_len};
  }

 private:
  struct Entry {
    uint32_t off = 0;    ///< start of L in ids_; R follows at off + l_len
    uint32_t l_len = 0;
    uint32_t r_len = 0;
  };
  std::vector<VertexId> ids_;
  std::vector<Entry> entries_;
};

/// Abstract consumer of enumerated maximal bicliques.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once per maximal biclique. `left`/`right` are sorted ascending
  /// and only valid during the call. Must be thread-safe.
  virtual void Emit(std::span<const VertexId> left,
                    std::span<const VertexId> right) = 0;

  /// Delivers a whole batch. Semantically identical to calling Emit once
  /// per entry (the default does exactly that); overrides synchronize once
  /// per batch. Must be thread-safe, like Emit.
  virtual void EmitBatch(const BicliqueBatch& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Emit(batch.left(i), batch.right(i));
    }
  }

  /// Optional cooperative cancellation: enumerators poll this between
  /// enumeration nodes and stop early when it returns true. Used by the
  /// progress experiment (F9) and by callers imposing time budgets.
  virtual bool ShouldStop() const { return false; }
};

/// Counts bicliques (and their aggregate dimensions) without storing them.
class CountSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    left_total_.fetch_add(left.size(), std::memory_order_relaxed);
    right_total_.fetch_add(right.size(), std::memory_order_relaxed);
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    // Accumulate locally, then one atomic round for the whole batch.
    uint64_t l = 0, r = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      l += batch.left(i).size();
      r += batch.right(i).size();
    }
    count_.fetch_add(batch.size(), std::memory_order_relaxed);
    left_total_.fetch_add(l, std::memory_order_relaxed);
    right_total_.fetch_add(r, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t left_total() const { return left_total_.load(std::memory_order_relaxed); }
  uint64_t right_total() const { return right_total_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> left_total_{0};
  std::atomic<uint64_t> right_total_{0};
};

/// Stores every biclique. Intended for tests and small results.
class CollectSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    std::lock_guard<std::mutex> lock(mu_);
    results_.push_back(Biclique{{left.begin(), left.end()},
                                {right.begin(), right.end()}});
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu_);  // one acquisition per batch
    results_.reserve(results_.size() + batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      auto l = batch.left(i);
      auto r = batch.right(i);
      results_.push_back(Biclique{{l.begin(), l.end()}, {r.begin(), r.end()}});
    }
  }

  /// Results in canonical (sorted) order; call after enumeration finishes.
  std::vector<Biclique> TakeSorted();

  /// Unsorted access (single-threaded use after enumeration).
  const std::vector<Biclique>& results() const { return results_; }

 private:
  mutable std::mutex mu_;
  std::vector<Biclique> results_;
};

/// Forwards each biclique to a user callback (serialized by a mutex).
class CallbackSink : public ResultSink {
 public:
  using Callback = std::function<void(std::span<const VertexId>,
                                      std::span<const VertexId>)>;
  explicit CallbackSink(Callback cb) : cb_(std::move(cb)) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    std::lock_guard<std::mutex> lock(mu_);
    cb_(left, right);
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu_);  // one acquisition per batch
    for (size_t i = 0; i < batch.size(); ++i) {
      cb_(batch.left(i), batch.right(i));
    }
  }

 private:
  std::mutex mu_;
  Callback cb_;
};

/// Order-independent fingerprint of the result set: a commutative
/// combination (sum and xor) of per-biclique hashes, plus the count.
/// Two runs producing the same multiset of bicliques produce the same
/// fingerprint regardless of enumeration order or thread interleaving.
class FingerprintSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t h = HashBiclique(left, right);
    sum_.fetch_add(h, std::memory_order_relaxed);
    xor_.fetch_xor(h, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    // Hash locally, then one atomic round (hashing dominates; the
    // accumulators are commutative so batching preserves the digest).
    uint64_t s = 0, x = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const uint64_t h = HashBiclique(batch.left(i), batch.right(i));
      s += h;
      x ^= h;
    }
    sum_.fetch_add(s, std::memory_order_relaxed);
    xor_.fetch_xor(x, std::memory_order_relaxed);
    count_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  /// Combined digest (sum, xor, count folded together).
  uint64_t Digest() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> xor_{0};
  std::atomic<uint64_t> count_{0};
};

/// Buffers emissions in worker-local storage and flushes them to the
/// (thread-safe, shared) inner sink as one EmitBatch — one synchronization
/// round per `max_results` bicliques / `max_bytes` arena bytes instead of
/// per emission.
///
/// NOT thread-safe by design: each producing worker owns one BufferedSink
/// over the shared inner sink (the session pool creates one per
/// worker). The owner must call Flush() (or destroy the sink) before the
/// run's results are read; the pool flushes on drain, including when a
/// run is cancelled — buffered bicliques are genuine maximal bicliques, so
/// flushing them preserves the valid-prefix guarantee of interrupted runs.
///
/// Robustness (docs/ROBUSTNESS.md):
///  * batch-arena growth is charged to the global MemoryBudget, and under
///    memory pressure the sink flushes at a quarter of its thresholds so
///    buffered bytes shrink instead of grow;
///  * a throwing inner sink *quarantines* this sink: the in-flight batch
///    is dropped (the already-delivered prefix stays valid — a prefix of
///    a prefix), further emissions become no-ops, and the exception
///    propagates so the worker's containment can convert it into
///    Termination::kInternal. Quarantine keeps a failing consumer from
///    being hammered with retries mid-drain.
class BufferedSink : public ResultSink {
 public:
  explicit BufferedSink(ResultSink* inner, size_t max_results = 64,
                        size_t max_bytes = 1 << 16);
  /// Flushes any remaining buffered emissions (swallowing a throwing
  /// inner sink — destructors must not throw; drain paths call Flush()
  /// directly to observe the failure).
  ~BufferedSink() override;

  BufferedSink(const BufferedSink&) = delete;
  BufferedSink& operator=(const BufferedSink&) = delete;

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override;

  /// Forwards the shared stop signal unbuffered (cancellation must not
  /// wait for a flush threshold).
  bool ShouldStop() const override { return inner_->ShouldStop(); }

  /// Delivers all buffered emissions to the inner sink now. Propagates an
  /// inner-sink exception after quarantining (see class comment).
  void Flush();

  /// Completed flush rounds (empty flushes don't count).
  uint64_t flushes() const { return flushes_; }
  /// Bicliques currently buffered (test/introspection hook).
  size_t buffered() const { return batch_.size(); }
  /// True once an inner-sink failure quarantined this sink.
  bool poisoned() const { return poisoned_; }

 private:
  ResultSink* inner_;
  size_t max_results_;
  size_t max_bytes_;
  BicliqueBatch batch_;
  uint64_t flushes_ = 0;
  bool poisoned_ = false;
  /// Pressure degradation noted once per sink (EnumStats::degradations).
  bool degraded_ = false;
  /// Last observed batch capacity / bytes of it charged to the budget.
  uint64_t capacity_bytes_ = 0;
  uint64_t budget_charged_ = 0;
};

}  // namespace mbe

#endif  // PMBE_CORE_SINK_H_
