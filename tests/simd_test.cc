// Differential tests for the vectorized kernel layer (util/simd.h): every
// kernel table the build carries must byte-match the scalar bodies on
// randomized inputs spanning densities, overlaps, lopsided size ratios,
// and word-boundary shapes, and whole-engine enumeration must be
// digest-identical at both dispatch levels (scalar and, where the build
// and CPU have it, AVX2). Run under ASan/UBSan by
// scripts/check.sh, this doubles as the fuzzer for the out-of-bounds
// hazards SIMD tails and overrunning stores invite.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "api/mbe.h"
#include "core/set_ops.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/simd_scalar.h"

namespace mbe {
namespace {

using simd::DispatchLevel;

// Forces a dispatch level for one scope, restoring the previous level on
// exit so test order cannot leak a pin into unrelated tests.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(DispatchLevel want)
      : previous_(simd::ActiveLevel()),
        installed_(simd::ForceLevel(want) == want) {}
  ~ScopedDispatch() { simd::ForceLevel(previous_); }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;

  /// False when the build or CPU lacks the level (the force clamped).
  bool installed() const { return installed_; }

 private:
  DispatchLevel previous_;
  bool installed_;
};

std::vector<DispatchLevel> AvailableLevels() {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  ScopedDispatch forced(DispatchLevel::kAVX2);
  if (forced.installed()) levels.push_back(DispatchLevel::kAVX2);
  return levels;
}

std::vector<VertexId> RandomSorted(size_t max_len, size_t universe,
                                   util::Rng& rng) {
  std::set<VertexId> s;
  const size_t len = rng.Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.insert(static_cast<VertexId>(rng.Below(universe)));
  }
  return {s.begin(), s.end()};
}

// A pair whose shape cycles through the regimes the kernels special-case:
// balanced dense, balanced sparse, lopsided (gallop territory), shared
// prefixes (high overlap), and near-boundary lengths around the 8-lane
// block size and the 16-element small-operand cutoff.
struct Pair {
  std::vector<VertexId> a, b;
};

Pair RandomPair(uint64_t shape, util::Rng& rng) {
  Pair p;
  switch (shape % 5) {
    case 0:  // balanced, dense universe -> high overlap
      p.a = RandomSorted(300, 400, rng);
      p.b = RandomSorted(300, 400, rng);
      break;
    case 1:  // balanced, sparse universe -> low overlap
      p.a = RandomSorted(200, 100000, rng);
      p.b = RandomSorted(200, 100000, rng);
      break;
    case 2:  // lopsided: tiny vs large
      p.a = RandomSorted(8, 5000, rng);
      p.b = RandomSorted(2000, 5000, rng);
      break;
    case 3: {  // b = superset of a (subset edge cases)
      p.b = RandomSorted(500, 2000, rng);
      for (VertexId x : p.b) {
        if (rng.Below(3) != 0) p.a.push_back(x);
      }
      break;
    }
    default:  // lengths straddling the lane/block boundaries
      p.a = RandomSorted(1 + rng.Below(20), 64, rng);
      p.b = RandomSorted(1 + rng.Below(20), 64, rng);
      break;
  }
  return p;
}

std::vector<VertexId> PadCopy(const std::vector<VertexId>& src) {
  std::vector<VertexId> out(src.size() + simd::kStorePad, 0);
  return out;
}

// --- Kernel-table equivalence -------------------------------------------

TEST(SimdKernelTest, AllLevelsMatchScalarOnRandomPairs) {
  using namespace simd::internal;
  util::Rng rng(20240806);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  ASSERT_FALSE(levels.empty());
  for (uint64_t round = 0; round < 400; ++round) {
    const Pair p = RandomPair(round, rng);
    const VertexId* a = p.a.data();
    const VertexId* b = p.b.data();
    const size_t na = p.a.size(), nb = p.b.size();

    std::vector<VertexId> ref_out = PadCopy(p.a);
    const size_t ref_inter = ScalarIntersect(a, na, b, nb, ref_out.data());
    const bool ref_subset = ScalarIsSubset(a, na, b, nb);
    const size_t caps[] = {0, 1, ref_inter, ref_inter + 1, na + nb};

    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      ASSERT_TRUE(forced.installed());
      const simd::KernelTable& k = simd::Kernels();
      const char* name = simd::DispatchLevelName(lvl);

      std::vector<VertexId> out = PadCopy(p.a);
      const size_t n_inter = k.intersect(a, na, b, nb, out.data());
      ASSERT_EQ(n_inter, ref_inter) << name << " round " << round;
      ASSERT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<ptrdiff_t>(n_inter),
                             ref_out.begin()))
          << name << " round " << round;

      ASSERT_EQ(k.intersect_size(a, na, b, nb), ref_inter)
          << name << " round " << round;
      for (size_t cap : caps) {
        ASSERT_EQ(k.intersect_size_capped(a, na, b, nb, cap),
                  std::min(ref_inter, cap))
            << name << " round " << round << " cap " << cap;
      }

      ASSERT_EQ(k.is_subset(a, na, b, nb), ref_subset)
          << name << " round " << round;
    }
  }
}

TEST(SimdKernelTest, MaskKernelsMatchScalar) {
  using namespace simd::internal;
  util::Rng rng(99173);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (uint64_t round = 0; round < 300; ++round) {
    // Universe sized to land mask bits on and around word boundaries.
    const size_t universe = 1 + rng.Below(400);
    const std::vector<VertexId> marked = RandomSorted(universe, universe, rng);
    const std::vector<VertexId> probes = RandomSorted(300, universe, rng);
    std::vector<uint64_t> words((universe + 63) / 64, 0);
    for (VertexId x : marked) words[x >> 6] |= uint64_t{1} << (x & 63);

    const size_t ref_count =
        ScalarMaskCount(probes.data(), probes.size(), words.data());
    std::vector<VertexId> ref_out = PadCopy(probes);
    const size_t ref_filtered = ScalarMaskFilter(
        probes.data(), probes.size(), words.data(), ref_out.data());

    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      ASSERT_TRUE(forced.installed());
      const simd::KernelTable& k = simd::Kernels();
      const char* name = simd::DispatchLevelName(lvl);

      ASSERT_EQ(k.mask_count(probes.data(), probes.size(), words.data()),
                ref_count)
          << name << " round " << round;
      std::vector<VertexId> out = PadCopy(probes);
      const size_t filtered = k.mask_filter(probes.data(), probes.size(),
                                            words.data(), out.data());
      ASSERT_EQ(filtered, ref_filtered) << name << " round " << round;
      ASSERT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<ptrdiff_t>(filtered),
                             ref_out.begin()))
          << name << " round " << round;
    }
  }
}

TEST(SimdKernelTest, IsSubsetEdgeShapesMatchScalar) {
  // The block-carried found-mask of the SIMD subset walks: a == b, a
  // missing one element at every lane position of the first blocks, a
  // whose last block straddles the end of b, and a longer than b.
  using namespace simd::internal;
  const std::vector<DispatchLevel> levels = AvailableLevels();
  std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>> cases;
  for (size_t n : {4u, 7u, 8u, 9u, 16u, 17u, 33u}) {
    std::vector<VertexId> b(n);
    for (size_t i = 0; i < n; ++i) b[i] = static_cast<VertexId>(2 * i);
    cases.push_back({b, b});
    for (size_t drop = 0; drop < n; ++drop) {
      std::vector<VertexId> miss = b;
      ++miss[drop];  // odd: absent from b, order kept
      cases.push_back({miss, b});
    }
    std::vector<VertexId> tail(b.begin() + static_cast<ptrdiff_t>(n / 2),
                               b.end());
    tail.push_back(b.back() + 2);  // runs one past the end of b
    cases.push_back({tail, b});
    std::vector<VertexId> longer = b;
    longer.push_back(b.back() + 2);
    cases.push_back({longer, b});
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [a, b] = cases[c];
    const bool want = ScalarIsSubset(a.data(), a.size(), b.data(), b.size());
    ASSERT_EQ(want, std::includes(b.begin(), b.end(), a.begin(), a.end()));
    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      ASSERT_TRUE(forced.installed());
      EXPECT_EQ(simd::Kernels().is_subset(a.data(), a.size(), b.data(),
                                          b.size()),
                want)
          << simd::DispatchLevelName(lvl) << " case " << c;
    }
  }
}

// --- set_ops routing equivalence ----------------------------------------

TEST(SimdKernelTest, SetOpsIdenticalAcrossStrategiesAndLevels) {
  util::Rng rng(5511);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (uint64_t round = 0; round < 200; ++round) {
    const Pair p = RandomPair(round, rng);
    std::vector<VertexId> expect;
    std::set_intersection(p.a.begin(), p.a.end(), p.b.begin(), p.b.end(),
                          std::back_inserter(expect));
    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      for (IntersectStrategy strategy :
           {IntersectStrategy::kAuto, IntersectStrategy::kMerge,
            IntersectStrategy::kGallop}) {
        std::vector<VertexId> out;
        IntersectInto(p.a, p.b, &out, strategy);
        ASSERT_EQ(out, expect)
            << simd::DispatchLevelName(lvl) << " strategy "
            << static_cast<int>(strategy) << " round " << round;
      }
      ASSERT_EQ(IntersectSize(p.a, p.b), expect.size());
      ASSERT_EQ(IsSubset(p.a, p.b),
                std::includes(p.b.begin(), p.b.end(), p.a.begin(), p.a.end()));
    }
  }
}

// --- Dispatch control ----------------------------------------------------

TEST(SimdDispatchTest, ForceLevelClampsAndRestores) {
  const DispatchLevel ambient = simd::ActiveLevel();
  const DispatchLevel max = simd::MaxSupportedLevel();
  {
    ScopedDispatch forced(DispatchLevel::kScalar);
    ASSERT_TRUE(forced.installed());
    EXPECT_EQ(simd::ActiveLevel(), DispatchLevel::kScalar);
    // Asking for more than the platform has clamps to the platform max.
    EXPECT_EQ(simd::ForceLevel(DispatchLevel::kAVX2), max);
    // A value naming no tier (1 was SSE4.2) installs, and reports, scalar.
    EXPECT_EQ(simd::ForceLevel(static_cast<DispatchLevel>(1)),
              DispatchLevel::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), DispatchLevel::kScalar);
    simd::ForceLevel(DispatchLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), ambient);
}

TEST(SimdDispatchTest, KernelCallCountersAdvance) {
  const simd::KernelCallCounters before = simd::ThreadKernelCalls();
  // Operands above the small-operand cutoff so the calls dispatch.
  std::vector<VertexId> a(64), b(64);
  for (size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<VertexId>(2 * i);
    b[i] = static_cast<VertexId>(3 * i);
  }
  (void)IntersectSize(a, b);
  const simd::KernelCallCounters after = simd::ThreadKernelCalls();
  EXPECT_GT(after.intersect, before.intersect);
}

TEST(SimdDispatchTest, KernelCallCountersAttributeFamilies) {
  // Each family's entry point advances its own counter and no other one;
  // is_subset (the result checker's kernel) is not counted at all.
  std::vector<VertexId> a(64), b(64);
  for (size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<VertexId>(2 * i);
    b[i] = static_cast<VertexId>(3 * i);
  }
  MembershipMask mask(256);
  mask.Set(b);
  auto delta = [](const simd::KernelCallCounters& before) {
    const simd::KernelCallCounters after = simd::ThreadKernelCalls();
    return std::array<uint64_t, 2>{after.intersect - before.intersect,
                                   after.mask - before.mask};
  };
  simd::KernelCallCounters before = simd::ThreadKernelCalls();
  (void)IntersectSize(a, b);
  EXPECT_EQ(delta(before), (std::array<uint64_t, 2>{1, 0}));
  before = simd::ThreadKernelCalls();
  (void)IntersectSizeWithMask(a, mask);
  EXPECT_EQ(delta(before), (std::array<uint64_t, 2>{0, 1}));
  before = simd::ThreadKernelCalls();
  (void)IsSubset(a, a);
  EXPECT_EQ(delta(before), (std::array<uint64_t, 2>{0, 0}));
}

TEST(SimdDispatchTest, EveryTableEntryIsPopulated) {
  // The tables are positional aggregates: an initializer list one entry
  // short still compiles and leaves the last kernel null.
  for (DispatchLevel lvl : AvailableLevels()) {
    ScopedDispatch forced(lvl);
    ASSERT_TRUE(forced.installed());
    const simd::KernelTable& k = simd::Kernels();
    const char* name = simd::DispatchLevelName(lvl);
    EXPECT_NE(k.intersect, nullptr) << name;
    EXPECT_NE(k.intersect_size, nullptr) << name;
    EXPECT_NE(k.intersect_size_capped, nullptr) << name;
    EXPECT_NE(k.is_subset, nullptr) << name;
    EXPECT_NE(k.mask_count, nullptr) << name;
    EXPECT_NE(k.mask_filter, nullptr) << name;
  }
}

// --- Whole-engine digest identity across levels --------------------------

// MBET classifies every node through the trie or the direct mask scan,
// BBK through list x bitmap probes, the MBEA family through list kernels;
// none of it may show in the output. Any dispatch level, any thread count
// (the engines that take one): same digest, same count. MBET runs also
// pin that no node converts a list to a bitmap.
TEST(SimdDispatchTest, EnginesDigestIdenticalAcrossLevels) {
  util::Rng rng(777);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (int g = 0; g < 4; ++g) {
    const BipartiteGraph graph =
        gen::ErdosRenyi(30 + g * 10, 25 + g * 5, 0.15, rng.Next());
    for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kBbk,
                                Algorithm::kImbea, Algorithm::kMineLmbc}) {
      uint64_t ref_digest = 0;
      uint64_t ref_count = 0;
      bool have_ref = false;
      for (DispatchLevel lvl : levels) {
        ScopedDispatch forced(lvl);
        for (unsigned threads : {1u, 8u}) {
          if (threads > 1 && !SupportsParallel(algorithm)) continue;
          FingerprintSink sink;
          RunOptions options;
          options.algorithm = algorithm;
          options.threads = threads;
          RunResult run;
          ASSERT_TRUE(
              Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
          EXPECT_EQ(static_cast<DispatchLevel>(run.stats.kernel_dispatch),
                    lvl);
          if (!have_ref) {
            ref_digest = sink.Digest();
            ref_count = sink.count();
            have_ref = true;
          } else {
            EXPECT_EQ(sink.Digest(), ref_digest)
                << AlgorithmName(algorithm) << " level "
                << simd::DispatchLevelName(lvl) << " threads " << threads;
            EXPECT_EQ(sink.count(), ref_count);
          }
          if (algorithm == Algorithm::kMbet) {
            EXPECT_EQ(run.stats.bitmap_conversions, 0u);
            EXPECT_EQ(run.stats.bitmap_kernel_calls, 0u);
          }
        }
      }
    }
  }
}

// EnumStats keeps `batch_candidates_classified` and `simd_batch_calls` for
// readers that still expect them; no engine path may count into them any
// more. Every level, serial and parallel, pinned and auto-tuned: both read
// 0 in the stats the facade fills from the kernel-table snapshots.
TEST(SimdDispatchTest, RetiredBatchCountersReadZero) {
  const BipartiteGraph graph = gen::PowerLaw(300, 200, 1700, 0.85, 0.8, 50);
  for (DispatchLevel lvl : AvailableLevels()) {
    ScopedDispatch forced(lvl);
    for (bool tune : {false, true}) {
      for (unsigned threads : {1u, 4u}) {
        CountSink sink;
        RunOptions options;
        options.auto_tune = tune;
        options.threads = threads;
        RunResult run;
        ASSERT_TRUE(
            Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
        ASSERT_GT(sink.count(), 0u);
        EXPECT_EQ(run.stats.batch_candidates_classified, 0u)
            << simd::DispatchLevelName(lvl) << " tune " << tune
            << " threads " << threads;
        EXPECT_EQ(run.stats.simd_batch_calls, 0u)
            << simd::DispatchLevelName(lvl) << " tune " << tune
            << " threads " << threads;
        EXPECT_EQ(static_cast<DispatchLevel>(run.stats.kernel_dispatch), lvl);
      }
    }
  }
}

}  // namespace
}  // namespace mbe
