// SSE4.2 kernel table (util/simd.h). Compiled with -msse4.2 only for this
// translation unit; referenced by the dispatcher when the host CPU reports
// sse4.2 support. The sorted-list kernels use the classic 4x4
// shuffle-network block intersection: compare a 4-lane block of `a`
// against all rotations of a 4-lane block of `b`, turn the hit mask into a
// byte-shuffle that compacts the matches, and advance whichever block's
// maximum is smaller. Tails and small inputs fall back to the scalar
// bodies in simd_scalar.h, recompiled here so they pick up hardware
// popcount.

#include "util/simd.h"

#if defined(__SSE4_2__)

#include <immintrin.h>

#include <bit>

#include "util/simd_scalar.h"

namespace mbe::simd::internal {

namespace {

// Byte-shuffle control for _mm_shuffle_epi8: entry m moves the dword lanes
// set in the 4-bit mask m to the front; unused lanes are zeroed (0x80).
struct SseCompactLut {
  alignas(16) uint8_t b[16][16];
};

constexpr SseCompactLut MakeSseCompactLut() {
  SseCompactLut lut{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        for (int byte = 0; byte < 4; ++byte) {
          lut.b[m][k * 4 + byte] = static_cast<uint8_t>(lane * 4 + byte);
        }
        ++k;
      }
    }
    for (; k < 4; ++k) {
      for (int byte = 0; byte < 4; ++byte) lut.b[m][k * 4 + byte] = 0x80;
    }
  }
  return lut;
}

constexpr SseCompactLut kCompact = MakeSseCompactLut();

// Bitmask of lanes of `va` equal to ANY lane of `vb` (all-pairs compare
// via the three cyclic rotations of vb).
inline unsigned PairwiseEqMask(__m128i va, __m128i vb) {
  __m128i cmp = _mm_cmpeq_epi32(va, vb);
  cmp = _mm_or_si128(
      cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
  cmp = _mm_or_si128(
      cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
  cmp = _mm_or_si128(
      cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(cmp)));
}

inline void StoreCompact(VertexId* dst, __m128i va, unsigned mask) {
  const __m128i shuf =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kCompact.b[mask]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_shuffle_epi8(va, shuf));
}

size_t SseIntersect(const VertexId* a, size_t na, const VertexId* b, size_t nb,
                    VertexId* out) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    for (;;) {
      const unsigned mask = PairwiseEqMask(va, vb);
      StoreCompact(out + count, va, mask);
      count += static_cast<size_t>(std::popcount(mask));
      const VertexId amax = a[i + 3], bmax = b[j + 3];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 4;
        if (i + 4 > na) {
          if (adv_b) j += 4;
          break;
        }
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (adv_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  if (i < na && j < nb) {
    count += ScalarIntersect(a + i, na - i, b + j, nb - j, out + count);
  }
  return count;
}

size_t SseIntersectSize(const VertexId* a, size_t na, const VertexId* b,
                        size_t nb) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    for (;;) {
      count += static_cast<size_t>(std::popcount(PairwiseEqMask(va, vb)));
      const VertexId amax = a[i + 3], bmax = b[j + 3];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 4;
        if (i + 4 > na) {
          if (adv_b) j += 4;
          break;
        }
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (adv_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  if (i < na && j < nb) {
    count += ScalarIntersectSize(a + i, na - i, b + j, nb - j);
  }
  return count;
}

size_t SseIntersectSizeCapped(const VertexId* a, size_t na, const VertexId* b,
                              size_t nb, size_t cap) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    for (;;) {
      count += static_cast<size_t>(std::popcount(PairwiseEqMask(va, vb)));
      if (count >= cap) return cap;
      const VertexId amax = a[i + 3], bmax = b[j + 3];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 4;
        if (i + 4 > na) {
          if (adv_b) j += 4;
          break;
        }
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (adv_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  if (count < cap && i < na && j < nb) {
    count += ScalarIntersectSizeCapped(a + i, na - i, b + j, nb - j,
                                       cap - count);
  }
  return count < cap ? count : cap;
}

// Subset walk: carry the found-mask of the current `a` block across the
// `b` blocks it straddles. When the vector loop exhausts `b`, the carried
// mask finishes against the scalar remainder of `b` before the plain
// scalar tail takes over.
bool SseIsSubset(const VertexId* a, size_t na, const VertexId* b, size_t nb) {
  if (na > nb) return false;
  size_t i = 0, j = 0;
  unsigned found = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    for (;;) {
      found |= PairwiseEqMask(va, vb);
      const VertexId amax = a[i + 3], bmax = b[j + 3];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        if (found != 0xFu) return false;
        found = 0;
        i += 4;
        if (i + 4 > na) {
          if (adv_b) j += 4;
          break;
        }
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (adv_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  if (found != 0) {
    for (size_t k = 0; k < 4; ++k) {
      if ((found >> k) & 1) continue;
      const VertexId x = a[i + k];
      const VertexId* lo = BranchlessLowerBound(b + j, nb - j, x);
      if (lo == b + nb || *lo != x) return false;
    }
    i += 4;
  }
  if (i < na) return ScalarIsSubset(a + i, na - i, b + j, nb - j);
  return true;
}

}  // namespace

const KernelTable& Sse42KernelTable() {
  // Mask and word kernels reuse the scalar bodies: compiled in this TU
  // they get hardware popcount, which is the whole win for and_count.
  static const KernelTable table = {
      SseIntersect,     SseIntersectSize, SseIntersectSizeCapped,
      SseIsSubset,      ScalarMaskCount,  ScalarMaskFilter,
      ScalarAndCount,
  };
  return table;
}

}  // namespace mbe::simd::internal

#endif  // defined(__SSE4_2__)
