#ifndef PMBE_CORE_SET_OPS_H_
#define PMBE_CORE_SET_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.h"

/// \file
/// Kernels over sorted vertex sets. Every enumeration algorithm spends the
/// bulk of its time here, so the kernels avoid allocation (outputs go to
/// caller-provided vectors) and adapt between merge and galloping
/// (binary-search) strategies when the operand sizes are lopsided.
/// Balanced merges and all mask probes route through the runtime-dispatched
/// vectorized kernel table (util/simd.h); lopsided pairs use branchless
/// galloping, and tiny operands stay on inline scalar loops to dodge the
/// dispatch overhead.

namespace mbe {

/// Intersects sorted `a` and `b` into `*out` (cleared first).
void Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
               std::vector<VertexId>* out);

/// Which list×list intersection kernel to run. `kAuto` picks galloping
/// when the operand sizes are lopsided (the production behaviour);
/// `kMerge`/`kGallop` pin the kernel for benchmarking and testing.
enum class IntersectStrategy : uint8_t { kAuto, kMerge, kGallop };

/// Intersects sorted `a` and `b` into `*out` (cleared first) using the
/// requested kernel.
void IntersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>* out,
                   IntersectStrategy strategy = IntersectStrategy::kAuto);

/// Returns |a ∩ b| without materializing the intersection.
size_t IntersectSize(std::span<const VertexId> a, std::span<const VertexId> b);

/// Returns |a ∩ b|, stopping early once the count reaches `cap` (returns
/// `cap` in that case). Used for "is the intersection full/empty" tests.
size_t IntersectSizeCapped(std::span<const VertexId> a,
                           std::span<const VertexId> b, size_t cap);

/// True iff every element of `a` is in `b` (both sorted).
bool IsSubset(std::span<const VertexId> a, std::span<const VertexId> b);

/// True iff sorted `a` contains `x` (binary search).
bool Contains(std::span<const VertexId> a, VertexId x);

/// A reusable word-packed membership mask over one vertex side: bit x of
/// the mask is bit x%64 of words()[x/64]. Set/clear a working set, then
/// probe membership in O(1). Clearing is proportional to the set size, not
/// the universe size. The packed layout is what lets the vectorized mask
/// kernels (util/simd.h mask_count / mask_filter) and the trie's
/// ClassifyAll probe eight vertices per step and prefetch ahead; a
/// byte-per-vertex mask would cost 8x the cache footprint on the same
/// probe stream.
class MembershipMask {
 public:
  MembershipMask() = default;
  explicit MembershipMask(size_t universe)
      : universe_(universe), packed_((universe + 63) / 64, 0) {}

  /// Grows the universe if needed (marks preserved).
  void EnsureUniverse(size_t universe) {
    if (universe_ < universe) {
      universe_ = universe;
      packed_.resize((universe + 63) / 64, 0);
    }
  }

  /// Marks all elements of `s` (which must be within the universe).
  void Set(std::span<const VertexId> s) {
    for (VertexId x : s) {
      PMBE_DCHECK(x < universe_);
      packed_[x >> 6] |= uint64_t{1} << (x & 63);
    }
  }

  /// Unmarks all elements of `s`.
  void Clear(std::span<const VertexId> s) {
    for (VertexId x : s) packed_[x >> 6] &= ~(uint64_t{1} << (x & 63));
  }

  bool Test(VertexId x) const {
    PMBE_DCHECK(x < universe_);
    return (packed_[x >> 6] >> (x & 63)) & 1;
  }

  size_t universe() const { return universe_; }

  /// The packed words, ceil(universe/64) of them. Input to the mask
  /// kernels; bits at or above `universe()` are zero.
  const uint64_t* words() const { return packed_.data(); }

 private:
  size_t universe_ = 0;
  std::vector<uint64_t> packed_;
};

/// Order-dependent 64-bit hash of a vertex list (FNV-1a over elements).
/// Equal lists hash equal; used as a cheap grouping key.
inline uint64_t HashVertexSpan(std::span<const VertexId> s) {
  uint64_t h = 1469598103934665603ULL;
  for (VertexId x : s) {
    h = (h ^ (x + 1ULL)) * 1099511628211ULL;
  }
  return h;
}

/// Returns |s ∩ mask| by probing the mask for each element of `s`.
size_t IntersectSizeWithMask(std::span<const VertexId> s,
                             const MembershipMask& mask);

/// Intersects `s` with the mask into `*out` (cleared first), preserving
/// order of `s`.
void IntersectWithMask(std::span<const VertexId> s, const MembershipMask& mask,
                       std::vector<VertexId>* out);

// --- Fixed-width bitmaps over a local universe -----------------------------
// A bitmap over the renumbered universe [0, m) is `util::WordsFor(m)` words
// (util/bitset.h). BBK keeps L' as a bitmap and probes it with sorted
// local lists; the membership-mask overloads above run the same kernels.

/// Sorted list × bitmap -> sorted list into `*out` (cleared first).
void IntersectInto(std::span<const VertexId> a, std::span<const uint64_t> b,
                   std::vector<VertexId>* out);

/// |a ∩ b| for a sorted list against a bitmap.
size_t IntersectSize(std::span<const VertexId> a, std::span<const uint64_t> b);

}  // namespace mbe

#endif  // PMBE_CORE_SET_OPS_H_
