#include "core/set_ops.h"

#include <algorithm>

#include "core/biclique.h"
#include "util/bitset.h"
#include "util/simd.h"
#include "util/simd_scalar.h"

namespace mbe {

namespace {

// When one operand is at least this many times longer than the other,
// gallop (binary search each element of the short side in the long side)
// instead of dispatching the block-merge kernel.
constexpr size_t kGallopRatio = 32;

// Below this operand size the function-pointer dispatch plus the output
// resize costs more than the work; stay on inline scalar loops.
constexpr size_t kSmallOperand = 16;

using simd::internal::BranchlessLowerBound;

// Galloping intersection: binary-search each element of `small` in the
// remaining suffix of `big`. The branchless lower bound keeps the search
// pipeline free of mispredicts (docs/SET_REPRESENTATION.md).
size_t GallopIntersect(std::span<const VertexId> small,
                       std::span<const VertexId> big, VertexId* out) {
  const VertexId* lo = big.data();
  const VertexId* end = big.data() + big.size();
  size_t count = 0;
  for (VertexId x : small) {
    lo = BranchlessLowerBound(lo, static_cast<size_t>(end - lo), x);
    if (lo == end) break;
    if (*lo == x) {
      if (out != nullptr) out[count] = x;
      ++count;
      ++lo;
    }
  }
  return count;
}

size_t GallopIntersectSizeCapped(std::span<const VertexId> small,
                                 std::span<const VertexId> big, size_t cap) {
  const VertexId* lo = big.data();
  const VertexId* end = big.data() + big.size();
  size_t count = 0;
  for (VertexId x : small) {
    if (count >= cap) return cap;
    lo = BranchlessLowerBound(lo, static_cast<size_t>(end - lo), x);
    if (lo == end) break;
    if (*lo == x) {
      ++count;
      ++lo;
    }
  }
  return count < cap ? count : cap;
}

bool Lopsided(size_t small, size_t big) {
  return small == 0 || big / small >= kGallopRatio;
}

// The packed words of a membership mask as a bitmap span.
std::span<const uint64_t> MaskWords(const MembershipMask& mask) {
  return {mask.words(), util::WordsFor(mask.universe())};
}

// Sizes `*out` so a kernel may scribble `kStorePad` lanes past `bound`
// results, without paying vector::clear + re-zeroing on the hot path.
VertexId* KernelOutput(std::vector<VertexId>* out, size_t bound) {
  out->resize(bound + simd::kStorePad);
  return out->data();
}

}  // namespace

void Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
               std::vector<VertexId>* out) {
  IntersectInto(a, b, out, IntersectStrategy::kAuto);
}

void IntersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>* out, IntersectStrategy strategy) {
  if (a.size() > b.size()) std::swap(a, b);
  switch (strategy) {
    case IntersectStrategy::kAuto:
      if (Lopsided(a.size(), b.size())) {
        out->resize(GallopIntersect(a, b, KernelOutput(out, a.size())));
        return;
      }
      if (a.size() < kSmallOperand) {
        out->resize(simd::internal::ScalarIntersect(
            a.data(), a.size(), b.data(), b.size(), KernelOutput(out, a.size())));
        return;
      }
      [[fallthrough]];
    case IntersectStrategy::kMerge:
      simd::CountKernelCall(simd::KernelOp::kIntersect);
      out->resize(simd::Kernels().intersect(a.data(), a.size(), b.data(),
                                            b.size(),
                                            KernelOutput(out, a.size())));
      return;
    case IntersectStrategy::kGallop:
      out->resize(GallopIntersect(a, b, KernelOutput(out, a.size())));
      return;
  }
}

size_t IntersectSize(std::span<const VertexId> a,
                     std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (Lopsided(a.size(), b.size())) return GallopIntersect(a, b, nullptr);
  if (a.size() < kSmallOperand) {
    return simd::internal::ScalarIntersectSize(a.data(), a.size(), b.data(),
                                               b.size());
  }
  simd::CountKernelCall(simd::KernelOp::kIntersect);
  return simd::Kernels().intersect_size(a.data(), a.size(), b.data(),
                                        b.size());
}

size_t IntersectSizeCapped(std::span<const VertexId> a,
                           std::span<const VertexId> b, size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  if (Lopsided(a.size(), b.size())) {
    return GallopIntersectSizeCapped(a, b, cap);
  }
  if (a.size() < kSmallOperand) {
    return simd::internal::ScalarIntersectSizeCapped(a.data(), a.size(),
                                                     b.data(), b.size(), cap);
  }
  simd::CountKernelCall(simd::KernelOp::kIntersect);
  return simd::Kernels().intersect_size_capped(a.data(), a.size(), b.data(),
                                               b.size(), cap);
}

bool IsSubset(std::span<const VertexId> a, std::span<const VertexId> b) {
  if (a.size() > b.size()) return false;
  if (Lopsided(a.size(), b.size()) || a.size() < kSmallOperand) {
    return simd::internal::ScalarIsSubset(a.data(), a.size(), b.data(),
                                          b.size());
  }
  return simd::Kernels().is_subset(a.data(), a.size(), b.data(), b.size());
}

bool Contains(std::span<const VertexId> a, VertexId x) {
  const VertexId* lo = BranchlessLowerBound(a.data(), a.size(), x);
  return lo != a.data() + a.size() && *lo == x;
}

size_t IntersectSizeWithMask(std::span<const VertexId> s,
                             const MembershipMask& mask) {
  return IntersectSize(s, MaskWords(mask));
}

void IntersectWithMask(std::span<const VertexId> s, const MembershipMask& mask,
                       std::vector<VertexId>* out) {
  IntersectInto(s, MaskWords(mask), out);
}

void IntersectInto(std::span<const VertexId> a, std::span<const uint64_t> b,
                   std::vector<VertexId>* out) {
  if (a.size() < kSmallOperand) {
    out->resize(simd::internal::ScalarMaskFilter(a.data(), a.size(), b.data(),
                                                 KernelOutput(out, a.size())));
    return;
  }
  simd::CountKernelCall(simd::KernelOp::kMask);
  out->resize(simd::Kernels().mask_filter(a.data(), a.size(), b.data(),
                                          KernelOutput(out, a.size())));
}

size_t IntersectSize(std::span<const VertexId> a,
                     std::span<const uint64_t> b) {
  if (a.size() < kSmallOperand) {
    return simd::internal::ScalarMaskCount(a.data(), a.size(), b.data());
  }
  simd::CountKernelCall(simd::KernelOp::kMask);
  return simd::Kernels().mask_count(a.data(), a.size(), b.data());
}

}  // namespace mbe
