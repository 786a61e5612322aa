#ifndef PMBE_UTIL_SIMD_H_
#define PMBE_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "util/common.h"

/// \file
/// Runtime-dispatched vectorized kernels (docs/SET_REPRESENTATION.md,
/// "The vectorized kernel layer").
///
/// Every sorted-list, membership-mask, and bitmap-word kernel underneath
/// the enumerators routes through one function-pointer table selected once
/// per process: AVX2 when the CPU and the build provide it, SSE4.2 next,
/// scalar always. The SIMD translation units are compiled with per-file
/// `-mavx2` / `-msse4.2` flags (CMake options `PMBE_ENABLE_AVX2` /
/// `PMBE_ENABLE_SSE42`), so the rest of the build stays portable to the
/// baseline x86-64 ISA and to non-x86 targets, where only the scalar table
/// exists.
///
/// Pinning for CI and benchmarking:
///  * `PMBE_FORCE_SCALAR=1` in the environment pins the scalar table at
///    first use (the `scripts/check.sh` scalar leg);
///  * `-DPMBE_FORCE_SCALAR=ON` at configure time compiles the pin in;
///  * `ForceLevel()` re-points the table at runtime (benchmarks and the
///    differential fuzzer; not thread-safe, single-threaded use only).

namespace mbe::simd {

/// Instruction-set level of the active kernel table, in increasing order
/// of capability. Numeric values are stable: they are stored in
/// `EnumStats::kernel_dispatch` and printed by `pmbe --stats`.
enum class DispatchLevel : uint8_t { kScalar = 0, kSSE42 = 1, kAVX2 = 2 };

/// Human-readable name ("scalar", "sse4.2", "avx2").
const char* DispatchLevelName(DispatchLevel level);

/// Materializing kernels may store one full vector past the last written
/// element; output buffers must have room for `result size + kStorePad`
/// elements. core/set_ops.cc sizes its vectors accordingly.
inline constexpr size_t kStorePad = 8;

/// The kernel function-pointer table. All list inputs are sorted and
/// duplicate-free; `out` buffers must not alias the inputs and must carry
/// `kStorePad` elements of slack. Every kernel tolerates empty operands.
struct KernelTable {
  /// out = a ∩ b; returns |out|.
  size_t (*intersect)(const VertexId* a, size_t na, const VertexId* b,
                      size_t nb, VertexId* out);
  /// Returns |a ∩ b|.
  size_t (*intersect_size)(const VertexId* a, size_t na, const VertexId* b,
                           size_t nb);
  /// Returns min(|a ∩ b|, cap), allowed to stop counting at cap.
  size_t (*intersect_size_capped)(const VertexId* a, size_t na,
                                  const VertexId* b, size_t nb, size_t cap);
  /// True iff a ⊆ b.
  bool (*is_subset)(const VertexId* a, size_t na, const VertexId* b,
                    size_t nb);
  /// Returns |{x in xs : bit x set in words}| (word-packed membership
  /// mask probe; bit x of the mask is bit x%64 of words[x/64]).
  size_t (*mask_count)(const VertexId* xs, size_t n, const uint64_t* words);
  /// out = {x in xs : bit x set in words}, order preserved; returns |out|.
  size_t (*mask_filter)(const VertexId* xs, size_t n, const uint64_t* words,
                        VertexId* out);
  /// Returns popcount(a & b) over n words.
  size_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
};

/// The active kernel table. Resolved once (cpuid + PMBE_FORCE_SCALAR) on
/// first use; subsequent calls are two loads.
const KernelTable& Kernels();

/// Level of the active table.
DispatchLevel ActiveLevel();

/// Highest level the build + CPU support, ignoring the scalar pins.
DispatchLevel MaxSupportedLevel();

/// Re-points the dispatch at `want`, clamped to MaxSupportedLevel();
/// returns the level actually installed. Overrides the environment pin
/// (explicit API beats ambient configuration). NOT thread-safe: call only
/// from single-threaded benchmark/test setup code.
DispatchLevel ForceLevel(DispatchLevel want);

// --- Per-kernel call counters ------------------------------------------
// Per-thread accounting of dispatched kernel calls, cheap enough for the
// hot path: each thread owns plain counters that only it reads and
// writes. Diff two ThreadKernelCalls() reads taken on one thread around a
// piece of work to attribute the calls it made; the session's workers do
// that around every task (EnumStats::simd_*_calls), so concurrent
// sessions never see each other's calls.

/// Kernel families the counters distinguish. `is_subset` is uncounted:
/// only the result checker (core/verify.h) calls it.
enum class KernelOp : uint8_t {
  kIntersect = 0,  // intersect / intersect_size / intersect_size_capped
  kMask = 1,       // mask_count / mask_filter
  kWord = 2,       // and_count
};
inline constexpr size_t kNumKernelOps = 3;

/// Totals per kernel family at one point in time.
struct KernelCallCounters {
  uint64_t intersect = 0;
  uint64_t mask = 0;
  uint64_t word = 0;
};

namespace internal {

/// The calling thread's totals, indexed by KernelOp.
inline thread_local uint64_t g_tls_counters[kNumKernelOps] = {};

}  // namespace internal

/// Counts one dispatched call of family `op` on the calling thread.
inline void CountKernelCall(KernelOp op) {
  ++internal::g_tls_counters[static_cast<size_t>(op)];
}

/// The calling thread's totals so far (monotone).
inline KernelCallCounters ThreadKernelCalls() {
  const uint64_t* c = internal::g_tls_counters;
  return {c[static_cast<size_t>(KernelOp::kIntersect)],
          c[static_cast<size_t>(KernelOp::kMask)],
          c[static_cast<size_t>(KernelOp::kWord)]};
}

}  // namespace mbe::simd

#endif  // PMBE_UTIL_SIMD_H_
