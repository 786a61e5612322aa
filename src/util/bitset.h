#ifndef PMBE_UTIL_BITSET_H_
#define PMBE_UTIL_BITSET_H_

#include <cstdint>
#include <span>

#include "util/common.h"

/// \file
/// Word-level bitmap primitives over `uint64_t` spans, in the layout the
/// bitmap overloads of core/set_ops.h read: a set over a universe of `m` vertices is `WordsFor(m)` consecutive
/// words, bit `x` of the set being bit `x % 64` of word `x / 64`. Kept
/// header-only so both the graph preprocessing layer and the enumeration
/// core can use them.

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

/// Sets the bit of every element of sorted-or-not list `xs`.
inline void SetBits(std::span<const VertexId> xs, std::span<uint64_t> words) {
  for (VertexId x : xs) SetBit(words, x);
}

/// Clears the bit of every element of `xs` (sparse clear: proportional to
/// |xs|, not the universe).
inline void ClearBits(std::span<const VertexId> xs, std::span<uint64_t> words) {
  for (VertexId x : xs) ClearBit(words, x);
}

}  // namespace mbe::util

#endif  // PMBE_UTIL_BITSET_H_
