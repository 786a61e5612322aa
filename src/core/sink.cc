#include "core/sink.h"

#include <algorithm>
#include <cstdio>

#include "util/fault.h"
#include "util/memory.h"

namespace mbe {

std::string ToString(const Biclique& b) {
  std::string out = "{";
  for (size_t i = 0; i < b.left.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(b.left[i]);
  }
  out += "} x {";
  for (size_t i = 0; i < b.right.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(b.right[i]);
  }
  out += "}";
  return out;
}

namespace {

// 64-bit mix (from MurmurHash3 finalizer).
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t HashBiclique(std::span<const VertexId> left,
                      std::span<const VertexId> right) {
  uint64_t h = 0x8f1bbcdcbfa53e0bULL;
  for (VertexId u : left) h = Mix64(h ^ (u + 0x9e3779b97f4a7c15ULL));
  h = Mix64(h ^ 0xdeadbeefULL);
  for (VertexId v : right) h = Mix64(h ^ (v + 0x165667b19e3779f9ULL));
  h = Mix64(h ^ (left.size() << 32 ^ right.size()));
  return h;
}

std::vector<Biclique> CollectSink::TakeSorted() {
  std::lock_guard<std::mutex> lock(mu_);
  std::sort(results_.begin(), results_.end());
  return std::move(results_);
}

uint64_t FingerprintSink::Digest() const {
  uint64_t s = sum_.load(std::memory_order_relaxed);
  uint64_t x = xor_.load(std::memory_order_relaxed);
  uint64_t c = count_.load(std::memory_order_relaxed);
  // Fold the three commutative accumulators into one digest.
  uint64_t d = s;
  d = d * 0x9e3779b97f4a7c15ULL + x;
  d = d * 0x9e3779b97f4a7c15ULL + c;
  return d;
}

BufferedSink::BufferedSink(ResultSink* inner, size_t max_results,
                           size_t max_bytes)
    : inner_(inner),
      max_results_(std::max<size_t>(1, max_results)),
      max_bytes_(max_bytes) {
  PMBE_CHECK(inner != nullptr);
}

BufferedSink::~BufferedSink() {
  try {
    Flush();
  } catch (...) {
    // The inner sink failed during the final drain; the batch was already
    // dropped by the quarantine and an exception must not leave a
    // destructor. Drain paths that need to observe the failure call
    // Flush() explicitly before destruction.
  }
  if (budget_charged_ > 0) util::CurrentMemoryBudget().Release(budget_charged_);
}

void BufferedSink::Emit(std::span<const VertexId> left,
                        std::span<const VertexId> right) {
  if (poisoned_) return;
  batch_.Append(left, right);
  const uint64_t cap = batch_.capacity_bytes();
  if (cap > capacity_bytes_) {
    const uint64_t delta = cap - capacity_bytes_;
    // "sink.buffer" models this arena growth failing to allocate.
    if (PMBE_FAULT("sink.buffer")) util::CurrentMemoryBudget().ForceExhaust();
    if (util::CurrentMemoryBudget().TryCharge(delta)) budget_charged_ += delta;
    capacity_bytes_ = cap;
  }
  size_t flush_results = max_results_;
  size_t flush_bytes = max_bytes_;
  if (util::CurrentMemoryBudget().UnderPressure()) {
    // Degrade: flush at a quarter of the thresholds so buffered bytes
    // shrink under pressure. More synchronization, same results.
    flush_results = std::max<size_t>(1, max_results_ / 4);
    flush_bytes = std::max<size_t>(1, max_bytes_ / 4);
    if (!degraded_) {
      degraded_ = true;
      util::CurrentMemoryBudget().NoteDegradation();
    }
  }
  if (batch_.size() >= flush_results || batch_.bytes() >= flush_bytes) Flush();
}

void BufferedSink::Flush() {
  if (poisoned_ || batch_.empty()) return;
  // "sink.flush" models the downstream consumer failing.
  if (PMBE_FAULT("sink.flush")) {
    poisoned_ = true;
    batch_.clear();
    throw util::FaultError("injected fault: sink.flush");
  }
  try {
    inner_->EmitBatch(batch_);
  } catch (...) {
    // Quarantine: drop the in-flight batch (the delivered prefix stays a
    // valid prefix), refuse further work, and let the worker's containment
    // turn the exception into Termination::kInternal.
    poisoned_ = true;
    batch_.clear();
    throw;
  }
  batch_.clear();
  ++flushes_;
}

}  // namespace mbe
