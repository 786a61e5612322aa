// Unit and property tests for the sorted-set kernels, including the
// galloping path taken on lopsided operand sizes, the membership-mask
// operations and the list x bitmap / bitmap x bitmap kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/set_ops.h"
#include "util/bitset.h"
#include "util/random.h"

namespace mbe {
namespace {

std::vector<VertexId> RandomSorted(size_t max_len, size_t universe,
                                   util::Rng& rng) {
  std::set<VertexId> s;
  const size_t len = rng.Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.insert(static_cast<VertexId>(rng.Below(universe)));
  }
  return {s.begin(), s.end()};
}

std::vector<VertexId> RefIntersect(const std::vector<VertexId>& a,
                                   const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// --- Hand-written cases ------------------------------------------------------

TEST(SetOpsTest, IntersectBasic) {
  std::vector<VertexId> a = {1, 3, 5, 7};
  std::vector<VertexId> b = {3, 4, 5, 8};
  std::vector<VertexId> out;
  Intersect(a, b, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
  EXPECT_EQ(IntersectSize(a, b), 2u);
}

TEST(SetOpsTest, IntersectEmptyAndDisjoint) {
  std::vector<VertexId> a = {1, 2};
  std::vector<VertexId> empty;
  std::vector<VertexId> out;
  Intersect(a, empty, &out);
  EXPECT_TRUE(out.empty());
  Intersect(empty, a, &out);
  EXPECT_TRUE(out.empty());
  std::vector<VertexId> b = {3, 4};
  Intersect(a, b, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(IntersectSize(a, b), 0u);
}

TEST(SetOpsTest, IntersectSizeCappedStopsEarly) {
  std::vector<VertexId> a = {1, 2, 3, 4, 5};
  std::vector<VertexId> b = {1, 2, 3, 4, 5};
  EXPECT_EQ(IntersectSizeCapped(a, b, 2), 2u);
  EXPECT_EQ(IntersectSizeCapped(a, b, 100), 5u);
  EXPECT_EQ(IntersectSizeCapped(a, b, 5), 5u);
}

TEST(SetOpsTest, IsSubset) {
  EXPECT_TRUE(IsSubset(std::vector<VertexId>{2, 4},
                       std::vector<VertexId>{1, 2, 3, 4}));
  EXPECT_FALSE(IsSubset(std::vector<VertexId>{2, 5},
                        std::vector<VertexId>{1, 2, 3, 4}));
  EXPECT_TRUE(IsSubset(std::vector<VertexId>{}, std::vector<VertexId>{1}));
  EXPECT_FALSE(IsSubset(std::vector<VertexId>{1}, std::vector<VertexId>{}));
}

TEST(SetOpsTest, IsSubsetAcrossKernelCutoffs) {
  // IsSubset is the result checker's kernel (core/verify.h). Sizes
  // straddle the inline-loop cutoff (16) and the gallop ratio (32); each
  // subset is then broken at its front, middle and back.
  for (size_t na : {1u, 15u, 16u, 17u, 40u}) {
    for (size_t stride : {1u, 2u, 64u}) {
      std::vector<VertexId> b;  // even numbers: odd values are misses
      for (size_t i = 0; i < na * stride; ++i) {
        b.push_back(static_cast<VertexId>(2 * i));
      }
      std::vector<VertexId> a;
      for (size_t i = 0; i < na; ++i) a.push_back(b[i * stride]);
      EXPECT_TRUE(IsSubset(a, b)) << na << "/" << stride;
      for (size_t at : {size_t{0}, na / 2, na - 1}) {
        std::vector<VertexId> miss = a;
        ++miss[at];  // odd, and still below miss[at + 1]
        EXPECT_FALSE(IsSubset(miss, b)) << na << "/" << stride << " @" << at;
      }
    }
  }
}

TEST(SetOpsTest, Contains) {
  std::vector<VertexId> a = {2, 4, 9};
  EXPECT_TRUE(Contains(a, 4));
  EXPECT_FALSE(Contains(a, 5));
  EXPECT_FALSE(Contains(std::vector<VertexId>{}, 1));
}

// --- Property sweep vs the standard library ---------------------------------

class SetOpsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetOpsPropertyTest, AgreesWithStdOnRandomSets) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const size_t universe = 1 + rng.Below(300);
    auto a = RandomSorted(60, universe, rng);
    auto b = RandomSorted(60, universe, rng);

    std::vector<VertexId> got;
    Intersect(a, b, &got);
    EXPECT_EQ(got, RefIntersect(a, b));
    EXPECT_EQ(IntersectSize(a, b), RefIntersect(a, b).size());
    EXPECT_TRUE(IsSubset(got, a));
    EXPECT_TRUE(IsSubset(got, b));
  }
}

TEST_P(SetOpsPropertyTest, GallopingPathMatchesMerge) {
  util::Rng rng(GetParam() * 31);
  for (int round = 0; round < 50; ++round) {
    // Force the lopsided regime (ratio >= 32).
    auto small = RandomSorted(8, 100000, rng);
    auto big = RandomSorted(4000, 100000, rng);
    while (!small.empty() && big.size() / small.size() < 64) small.pop_back();
    std::vector<VertexId> got;
    Intersect(small, big, &got);
    EXPECT_EQ(got, RefIntersect(small, big));
    Intersect(big, small, &got);  // symmetric entry point
    EXPECT_EQ(got, RefIntersect(small, big));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- MembershipMask ----------------------------------------------------------

TEST(MembershipMaskTest, SetTestClear) {
  MembershipMask mask(10);
  std::vector<VertexId> s = {1, 4, 7};
  mask.Set(s);
  EXPECT_TRUE(mask.Test(1));
  EXPECT_TRUE(mask.Test(7));
  EXPECT_FALSE(mask.Test(0));
  mask.Clear(s);
  EXPECT_FALSE(mask.Test(1));
}

TEST(MembershipMaskTest, EnsureUniverseGrows) {
  MembershipMask mask(2);
  mask.EnsureUniverse(100);
  EXPECT_EQ(mask.universe(), 100u);
  std::vector<VertexId> s = {99};
  mask.Set(s);
  EXPECT_TRUE(mask.Test(99));
  // Shrinking requests are ignored.
  mask.EnsureUniverse(5);
  EXPECT_EQ(mask.universe(), 100u);
}

TEST(MembershipMaskTest, IntersectWithMaskMatchesReference) {
  util::Rng rng(9);
  for (int round = 0; round < 100; ++round) {
    auto a = RandomSorted(50, 200, rng);
    auto b = RandomSorted(50, 200, rng);
    MembershipMask mask(200);
    mask.Set(b);
    std::vector<VertexId> got;
    IntersectWithMask(a, mask, &got);
    EXPECT_EQ(got, RefIntersect(a, b));
    EXPECT_EQ(IntersectSizeWithMask(a, mask), RefIntersect(a, b).size());
    mask.Clear(b);
    EXPECT_EQ(IntersectSizeWithMask(a, mask), 0u);
  }
}

TEST(MembershipMaskTest, SetClearRoundTripsAtWordBoundaries) {
  // 63/64/65 straddle the first packed-word boundary; 127/128 the second.
  MembershipMask mask(130);
  std::vector<VertexId> boundary = {63, 64, 65, 127, 128};
  mask.Set(boundary);
  for (VertexId x : boundary) EXPECT_TRUE(mask.Test(x)) << x;
  // Neighbors of the set bits stay clear (no word-level bleed).
  for (VertexId x : {62u, 66u, 126u, 129u}) EXPECT_FALSE(mask.Test(x)) << x;
  std::vector<VertexId> lower = {63, 127};
  mask.Clear(lower);
  EXPECT_FALSE(mask.Test(63));
  EXPECT_FALSE(mask.Test(127));
  EXPECT_TRUE(mask.Test(64));
  EXPECT_TRUE(mask.Test(65));
  EXPECT_TRUE(mask.Test(128));
}

TEST(MembershipMaskTest, UniverseGrowthPreservesMarksAcrossWords) {
  // Start below one word, grow past several word boundaries, and check
  // both the preserved marks and the freshly grown region.
  MembershipMask mask(50);
  std::vector<VertexId> s = {0, 31, 49};
  mask.Set(s);
  for (size_t universe : {64u, 65u, 128u, 300u}) {
    mask.EnsureUniverse(universe);
    EXPECT_EQ(mask.universe(), universe);
    EXPECT_TRUE(mask.Test(0));
    EXPECT_TRUE(mask.Test(31));
    EXPECT_TRUE(mask.Test(49));
    const std::vector<VertexId> top = {static_cast<VertexId>(universe - 1)};
    EXPECT_FALSE(mask.Test(top[0]));
    mask.Set(top);
    EXPECT_TRUE(mask.Test(top[0]));
    mask.Clear(top);
  }
}

TEST(MembershipMaskTest, WordsExposePackedLayout) {
  MembershipMask mask(70);
  std::vector<VertexId> s = {0, 63, 64, 69};
  mask.Set(s);
  EXPECT_EQ(mask.words()[0], (uint64_t{1} << 63) | 1u);
  EXPECT_EQ(mask.words()[1], (uint64_t{1} << 5) | 1u);
}

// --- Bitmap kernels ----------------------------------------------------------
// The list x bitmap overloads, cross-checked against the sorted-list
// reference.

std::vector<VertexId> RandomSortedSet(size_t n, size_t universe,
                                      util::Rng& rng) {
  std::vector<VertexId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(rng.Below(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint64_t> ToWords(std::span<const VertexId> set, size_t universe) {
  std::vector<uint64_t> words(util::WordsFor(universe), 0);
  util::SetBits(set, words);
  return words;
}

TEST(SetKernelsTest, MixedKernelsMatchListReference) {
  util::Rng rng(17);
  const size_t universe = 300;
  auto a = RandomSortedSet(80, universe, rng);
  auto b = RandomSortedSet(150, universe, rng);
  std::vector<VertexId> want;
  Intersect(a, b, &want);

  auto wb = ToWords(b, universe);
  std::vector<VertexId> got;
  IntersectInto(std::span<const VertexId>(a), wb, &got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(IntersectSize(std::span<const VertexId>(a),
                          std::span<const uint64_t>(wb)),
            want.size());
}

TEST(SetKernelsTest, IntersectIntoStrategiesAgree) {
  util::Rng rng(19);
  for (int round = 0; round < 50; ++round) {
    const size_t universe = 16 + rng.Below(512);
    auto a = RandomSortedSet(rng.Below(universe), universe, rng);
    auto b = RandomSortedSet(rng.Below(universe), universe, rng);
    std::vector<VertexId> merge, gallop, auto_out;
    IntersectInto(a, b, &merge, IntersectStrategy::kMerge);
    IntersectInto(a, b, &gallop, IntersectStrategy::kGallop);
    IntersectInto(a, b, &auto_out, IntersectStrategy::kAuto);
    EXPECT_EQ(gallop, merge) << "round=" << round;
    EXPECT_EQ(auto_out, merge) << "round=" << round;
  }
}

TEST(SetKernelsTest, EmptyOperands) {
  const std::vector<uint64_t> full = ToWords(std::vector<VertexId>{0, 1, 2, 3},
                                             64);
  const std::vector<uint64_t> none(full.size(), 0);
  std::vector<VertexId> out = {7};  // stale content must be cleared
  IntersectInto(std::span<const VertexId>(), full, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(IntersectSize(std::span<const VertexId>(),
                          std::span<const uint64_t>(full)),
            0u);
  const std::vector<VertexId> list = {0, 1, 2, 3};
  IntersectInto(list, none, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(IntersectSize(std::span<const VertexId>(list),
                          std::span<const uint64_t>(none)),
            0u);
}

TEST(SetKernelsTest, MixedKernelsAcrossSmallListCutoff) {
  // Lists shorter than 16 stay on the inline loop; longer ones dispatch
  // the mask kernels. Both must agree with the reference at every length.
  util::Rng rng(31);
  const size_t universe = 200;
  const auto b = RandomSortedSet(120, universe, rng);
  const auto wb = ToWords(b, universe);
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<VertexId> a;  // exactly n elements
    for (size_t k = 0; k < n; ++k) {
      a.push_back(static_cast<VertexId>(3 * k + n % 3));
    }
    std::vector<VertexId> want, got;
    Intersect(a, b, &want);
    IntersectInto(std::span<const VertexId>(a), wb, &got);
    EXPECT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(IntersectSize(std::span<const VertexId>(a),
                            std::span<const uint64_t>(wb)),
              want.size())
        << "n=" << n;
  }
}

TEST(SetKernelsTest, MixedKernelsAcrossWordBoundaries) {
  // Universes sit on and around the word boundaries, with the boundary
  // bits set in both the list and the bitmap.
  for (size_t universe : {1u, 63u, 64u, 65u, 128u, 129u, 320u}) {
    std::vector<VertexId> a, b;
    for (VertexId x : {0u, 62u, 63u, 64u, 65u, 127u, 128u, 319u}) {
      if (x >= universe) continue;
      a.push_back(x);
      if (x % 2 == 1 || x == 64) b.push_back(x);
    }
    b.push_back(static_cast<VertexId>(universe - 1));
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    std::vector<VertexId> want;
    Intersect(a, b, &want);
    const auto wb = ToWords(b, universe);
    EXPECT_EQ(IntersectSize(std::span<const VertexId>(a),
                            std::span<const uint64_t>(wb)),
              want.size())
        << "universe=" << universe;
    std::vector<VertexId> got;
    IntersectInto(std::span<const VertexId>(a), wb, &got);
    EXPECT_EQ(got, want) << "universe=" << universe;
  }
}

// --- HashVertexSpan ----------------------------------------------------------

TEST(HashVertexSpanTest, EqualListsHashEqual) {
  std::vector<VertexId> a = {1, 2, 3};
  std::vector<VertexId> b = {1, 2, 3};
  EXPECT_EQ(HashVertexSpan(a), HashVertexSpan(b));
}

TEST(HashVertexSpanTest, DistinguishesOrderAndContent) {
  std::vector<VertexId> a = {1, 2, 3};
  std::vector<VertexId> b = {3, 2, 1};
  std::vector<VertexId> c = {1, 2};
  std::vector<VertexId> d = {1, 2, 4};
  EXPECT_NE(HashVertexSpan(a), HashVertexSpan(b));
  EXPECT_NE(HashVertexSpan(a), HashVertexSpan(c));
  EXPECT_NE(HashVertexSpan(a), HashVertexSpan(d));
  EXPECT_NE(HashVertexSpan(c), HashVertexSpan(std::vector<VertexId>{}));
}

TEST(HashVertexSpanTest, LowCollisionRateOnRandomSets) {
  util::Rng rng(13);
  std::set<uint64_t> hashes;
  std::set<std::vector<VertexId>> sets;
  for (int i = 0; i < 2000; ++i) {
    auto s = RandomSorted(12, 64, rng);
    if (sets.insert(s).second) hashes.insert(HashVertexSpan(s));
  }
  // Distinct sets must map to (nearly always) distinct hashes.
  EXPECT_EQ(hashes.size(), sets.size());
}

}  // namespace
}  // namespace mbe
