#include "util/simd.h"

#include <cstdlib>

#include "util/simd_scalar.h"

namespace mbe::simd {

namespace internal {
// Defined by the AVX2 translation unit when CMake compiles it in
// (PMBE_HAVE_AVX2_KERNELS).
const KernelTable& Avx2KernelTable();
}  // namespace internal

namespace {

const KernelTable kScalarTable = {
    internal::ScalarIntersect,     internal::ScalarIntersectSize,
    internal::ScalarIntersectSizeCapped, internal::ScalarIsSubset,
    internal::ScalarMaskCount,     internal::ScalarMaskFilter,
};

const KernelTable& TableFor(DispatchLevel level) {
  switch (level) {
#if defined(PMBE_HAVE_AVX2_KERNELS)
    case DispatchLevel::kAVX2:
      return internal::Avx2KernelTable();
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
  const DispatchLevel level =
      ScalarForcedByEnv() ? DispatchLevel::kScalar : DetectMaxSupportedLevel();
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
  // Two tiers: AVX2 when asked for and supported, scalar otherwise — also
  // for a value outside the enum, so the recorded level always names the
  // table installed.
  const DispatchLevel level = want == DispatchLevel::kAVX2
                                  ? MaxSupportedLevel()
                                  : DispatchLevel::kScalar;
  Dispatch& d = ActiveDispatch();
  d.table = &TableFor(level);
  d.level = level;
  return level;
}

}  // namespace mbe::simd
