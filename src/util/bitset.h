#ifndef PMBE_UTIL_BITSET_H_
#define PMBE_UTIL_BITSET_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/common.h"
#include "util/simd.h"

/// \file
/// Word-level bitmap primitives over `uint64_t` spans. These are the
/// fixed-width kernels underneath the bitmap overloads in core/set_ops.h:
/// a set over a universe of `m` vertices is `WordsFor(m)` consecutive
/// words, bit `x` of the set being bit `x % 64` of word `x / 64`. Kept
/// header-only so both the graph preprocessing layer and the enumeration
/// core can use them; AND + popcount routes through the runtime-dispatched
/// kernel table (util/simd.h) once the bitmaps are wide enough to amortize
/// the indirect call.

namespace mbe::util {

/// Number of 64-bit words needed for a universe of `universe` elements.
constexpr size_t WordsFor(size_t universe) { return (universe + 63) / 64; }

inline void SetBit(std::span<uint64_t> words, VertexId x) {
  PMBE_DCHECK(x / 64 < words.size());
  words[x >> 6] |= uint64_t{1} << (x & 63);
}

inline void ClearBit(std::span<uint64_t> words, VertexId x) {
  PMBE_DCHECK(x / 64 < words.size());
  words[x >> 6] &= ~(uint64_t{1} << (x & 63));
}

inline bool TestBit(std::span<const uint64_t> words, VertexId x) {
  PMBE_DCHECK(x / 64 < words.size());
  return (words[x >> 6] >> (x & 63)) & 1;
}

/// Zeroes all words.
inline void ClearWords(std::span<uint64_t> words) {
  std::memset(words.data(), 0, words.size() * sizeof(uint64_t));
}

/// Sets the bit of every element of sorted-or-not list `xs`.
inline void SetBits(std::span<const VertexId> xs, std::span<uint64_t> words) {
  for (VertexId x : xs) SetBit(words, x);
}

/// Clears the bit of every element of `xs` (sparse clear: proportional to
/// |xs|, not the universe).
inline void ClearBits(std::span<const VertexId> xs, std::span<uint64_t> words) {
  for (VertexId x : xs) ClearBit(words, x);
}

/// Word count below which AND + popcount stays on an inline loop (the
/// indirect dispatch call costs more than the loop on narrow bitmaps).
inline constexpr size_t kAndCountDispatchWords = 2;

/// |a ∩ b| for two bitmaps over the same universe: AND + popcount, no
/// materialization. The O(m/64) kernel the dense classification path uses.
/// Dispatched from two words up: the baseline x86-64 build has no popcnt
/// instruction, and the AVX2 TU's kernel does.
inline size_t AndCountBits(std::span<const uint64_t> a,
                           std::span<const uint64_t> b) {
  PMBE_DCHECK(a.size() == b.size());
  if (a.size() >= kAndCountDispatchWords) {
    simd::CountKernelCall(simd::KernelOp::kWord);
    return simd::Kernels().and_count(a.data(), b.data(), a.size());
  }
  size_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

}  // namespace mbe::util

#endif  // PMBE_UTIL_BITSET_H_
