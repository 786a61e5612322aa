#ifndef PMBE_UTIL_SIMD_SCALAR_H_
#define PMBE_UTIL_SIMD_SCALAR_H_

#include <cstddef>
#include <cstdint>

#include "util/common.h"

/// \file
/// Portable scalar bodies of every kernel in the dispatch table
/// (util/simd.h). Header-only so the AVX2 translation unit can reuse them
/// for block tails: a tail compiled in that TU runs the exact same
/// algorithm, which keeps the differential fuzzer's "AVX2 byte-matches
/// scalar" property trivial.

namespace mbe::simd::internal {

/// Branchless lower bound: the compare folds to a conditional move, so the
/// search pipeline never mispredicts. This is the "branchless galloping"
/// building block the lopsided intersection paths use.
inline const VertexId* BranchlessLowerBound(const VertexId* lo, size_t n,
                                            VertexId x) {
  while (n > 0) {
    const size_t half = n >> 1;
    const VertexId* mid = lo + half;
    const bool go_right = *mid < x;
    lo = go_right ? mid + 1 : lo;
    n = go_right ? n - half - 1 : half;
  }
  return lo;
}

inline size_t ScalarIntersect(const VertexId* a, size_t na, const VertexId* b,
                              size_t nb, VertexId* out) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i], y = b[j];
    if (x == y) out[count++] = x;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

inline size_t ScalarIntersectSize(const VertexId* a, size_t na,
                                  const VertexId* b, size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i], y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

inline size_t ScalarIntersectSizeCapped(const VertexId* a, size_t na,
                                        const VertexId* b, size_t nb,
                                        size_t cap) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb && count < cap) {
    const VertexId x = a[i], y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

inline bool ScalarIsSubset(const VertexId* a, size_t na, const VertexId* b,
                           size_t nb) {
  if (na > nb) return false;
  size_t i = 0, j = 0;
  while (i < na) {
    if (nb - j < na - i) return false;
    const VertexId x = a[i];
    while (j < nb && b[j] < x) ++j;
    if (j == nb || b[j] != x) return false;
    ++i;
    ++j;
  }
  return true;
}

inline size_t ScalarMaskCount(const VertexId* xs, size_t n,
                              const uint64_t* words) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const VertexId x = xs[i];
    count += (words[x >> 6] >> (x & 63)) & 1;
  }
  return count;
}

inline size_t ScalarMaskFilter(const VertexId* xs, size_t n,
                               const uint64_t* words, VertexId* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const VertexId x = xs[i];
    out[count] = x;
    count += (words[x >> 6] >> (x & 63)) & 1;
  }
  return count;
}

}  // namespace mbe::simd::internal

#endif  // PMBE_UTIL_SIMD_SCALAR_H_
