#include "core/enum_context.h"

#include <atomic>

#include "util/fault.h"
#include "util/memory.h"

namespace mbe {

namespace {

template <typename T>
uint64_t CapacityBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

std::atomic<bool> g_paranoid_for_testing{false};

}  // namespace

void EnumContext::SetParanoidForTesting(bool on) {
  g_paranoid_for_testing.store(on, std::memory_order_relaxed);
}

EnumContext::EnumContext(bool paranoid)
    : paranoid_(paranoid ||
                g_paranoid_for_testing.load(std::memory_order_relaxed)) {}

EnumContext::~EnumContext() { ReleaseBudget(budget_charged_); }

void EnumContext::ReleaseBudget(uint64_t freed) {
  const uint64_t r = freed < budget_charged_ ? freed : budget_charged_;
  if (r > 0) util::CurrentMemoryBudget().Release(r);
  budget_charged_ -= r;
}

template <typename T>
std::vector<T>* EnumContext::Acquire(Pool<T>* pool) {
  if (pool->top == pool->bufs.size()) {
    pool->bufs.push_back(std::make_unique<std::vector<T>>());
    pool->bytes.push_back(0);
  }
  std::vector<T>* buf = pool->bufs[pool->top++].get();
  buf->clear();
  return buf;
}

std::vector<VertexId>* EnumContext::AcquireIds() { return Acquire(&ids_); }

std::vector<uint64_t>* EnumContext::AcquireWords() { return Acquire(&words_); }

EnumContext::Checkpoint EnumContext::MakeCheckpoint() const {
  return Checkpoint{ids_.top, words_.top};
}

template <typename T>
void EnumContext::RewindPool(Pool<T>* pool, size_t to) {
  PMBE_DCHECK(to <= pool->top);
  // Buffers may have grown while handed out; settle the growth into the
  // accounting before (possibly) freeing them.
  for (size_t i = to; i < pool->top; ++i) {
    const uint64_t now = CapacityBytes(*pool->bufs[i]);
    const uint64_t before = pool->bytes[i];
    if (now > before) {
      const uint64_t delta = now - before;
      held_bytes_ += delta;
      // "arena.grow" models this growth allocation failing: the budget
      // latches exhaustion exactly as if the charge had been declined.
      if (PMBE_FAULT("arena.grow")) {
        util::CurrentMemoryBudget().ForceExhaust();
      }
      if (util::CurrentMemoryBudget().TryCharge(delta)) {
        budget_charged_ += delta;
      }
      pool->bytes[i] = now;
    }
  }
  if (held_bytes_ > peak_bytes_) peak_bytes_ = held_bytes_;
  if (paranoid_) {
    // Free instead of pooling, so a span that escaped the frame is a
    // use-after-free ASan can see.
    uint64_t freed = 0;
    for (size_t i = to; i < pool->top; ++i) freed += pool->bytes[i];
    pool->bufs.resize(to);
    pool->bytes.resize(to);
    held_bytes_ -= freed;
    ReleaseBudget(freed);
  }
  pool->top = to;
}

void EnumContext::Rewind(const Checkpoint& cp) {
  RewindPool(&ids_, cp.ids_top);
  RewindPool(&words_, cp.words_top);
}

template <typename T>
void EnumContext::TrimPool(Pool<T>* pool) {
  uint64_t freed = 0;
  for (uint64_t b : pool->bytes) freed += b;
  pool->bufs.clear();
  pool->bytes.clear();
  held_bytes_ -= freed;
  ReleaseBudget(freed);
}

void EnumContext::Trim() {
  PMBE_DCHECK(live_buffers() == 0);
  TrimPool(&ids_);
  TrimPool(&words_);
}

}  // namespace mbe
