#include "util/simd.h"

#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/simd_scalar.h"

namespace mbe::simd {

namespace internal {
// Defined by the per-ISA translation units when CMake compiles them in
// (PMBE_HAVE_SSE42_KERNELS / PMBE_HAVE_AVX2_KERNELS).
const KernelTable& Sse42KernelTable();
const KernelTable& Avx2KernelTable();
}  // namespace internal

namespace {

const KernelTable kScalarTable = {
    internal::ScalarIntersect,     internal::ScalarIntersectSize,
    internal::ScalarIntersectSizeCapped, internal::ScalarIsSubset,
    internal::ScalarMaskCount,     internal::ScalarMaskFilter,
    internal::ScalarAndCount,
};

const KernelTable& TableFor(DispatchLevel level) {
  switch (level) {
#if defined(PMBE_HAVE_AVX2_KERNELS)
    case DispatchLevel::kAVX2:
      return internal::Avx2KernelTable();
#endif
#if defined(PMBE_HAVE_SSE42_KERNELS)
    case DispatchLevel::kSSE42:
      return internal::Sse42KernelTable();
#endif
    default:
      return kScalarTable;
  }
}

DispatchLevel DetectMaxSupportedLevel() {
#if defined(__x86_64__) || defined(__i386__)
#if defined(PMBE_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAVX2;
#endif
#if defined(PMBE_HAVE_SSE42_KERNELS)
  if (__builtin_cpu_supports("sse4.2")) return DispatchLevel::kSSE42;
#endif
#endif
  return DispatchLevel::kScalar;
}

bool ScalarForcedByEnv() {
  const char* e = std::getenv("PMBE_FORCE_SCALAR");
  return e != nullptr && *e != '\0' && !(e[0] == '0' && e[1] == '\0');
}

struct Dispatch {
  const KernelTable* table;
  DispatchLevel level;
};

Dispatch ResolveDispatch() {
  DispatchLevel level = DetectMaxSupportedLevel();
#if defined(PMBE_FORCE_SCALAR_BUILD)
  level = DispatchLevel::kScalar;
#else
  if (ScalarForcedByEnv()) level = DispatchLevel::kScalar;
#endif
  return {&TableFor(level), level};
}

Dispatch& ActiveDispatch() {
  static Dispatch d = ResolveDispatch();
  return d;
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSSE42:
      return "sse4.2";
    case DispatchLevel::kAVX2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable& Kernels() { return *ActiveDispatch().table; }

DispatchLevel ActiveLevel() { return ActiveDispatch().level; }

DispatchLevel MaxSupportedLevel() {
  static const DispatchLevel level = DetectMaxSupportedLevel();
  return level;
}

DispatchLevel ForceLevel(DispatchLevel want) {
  DispatchLevel level = want;
  if (static_cast<uint8_t>(level) > static_cast<uint8_t>(MaxSupportedLevel())) {
    level = MaxSupportedLevel();
  }
  Dispatch& d = ActiveDispatch();
  d.table = &TableFor(level);
  d.level = level;
  return level;
}

// --- Counter registry ----------------------------------------------------

namespace {

struct CounterRegistry {
  std::mutex mu;
  std::vector<std::atomic<uint64_t>*> live;
  uint64_t retired[kNumKernelOps] = {};
};

CounterRegistry& Registry() {
  static CounterRegistry* r = new CounterRegistry();  // never destroyed:
  // thread_local blocks may retire after static destruction would run.
  return *r;
}

}  // namespace

namespace internal {

void RegisterTlsCounters(std::atomic<uint64_t>* block) {
  CounterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(block);
}

void RetireTlsCounters(std::atomic<uint64_t>* block) {
  CounterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (size_t k = 0; k < kNumKernelOps; ++k) {
    r.retired[k] += block[k].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < r.live.size(); ++i) {
    if (r.live[i] == block) {
      r.live[i] = r.live.back();
      r.live.pop_back();
      break;
    }
  }
}

}  // namespace internal

KernelCallCounters SnapshotKernelCalls() {
  CounterRegistry& r = Registry();
  uint64_t totals[kNumKernelOps] = {};
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (size_t k = 0; k < kNumKernelOps; ++k) totals[k] = r.retired[k];
    for (std::atomic<uint64_t>* block : r.live) {
      for (size_t k = 0; k < kNumKernelOps; ++k) {
        totals[k] += block[k].load(std::memory_order_relaxed);
      }
    }
  }
  KernelCallCounters out;
  out.intersect = totals[static_cast<size_t>(KernelOp::kIntersect)];
  out.mask = totals[static_cast<size_t>(KernelOp::kMask)];
  out.word = totals[static_cast<size_t>(KernelOp::kWord)];
  return out;
}

}  // namespace mbe::simd
