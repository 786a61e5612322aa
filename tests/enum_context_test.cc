// Unit tests for EnumContext, the per-thread scratch pool behind the
// enumeration engines: checkpoint/rewind bracketing, capacity accounting
// (including growth observed at rewind time), pooled reuse across runs,
// and the paranoid free-on-rewind mode. The final test runs every real
// engine with paranoid contexts: under the scripts/check.sh ASan leg it
// proves no engine lets a scratch buffer escape its rewound frame (an
// escape is a use-after-free ASan reports).

#include <gtest/gtest.h>

#include <vector>

#include "api/mbe.h"
#include "core/enum_context.h"
#include "gen/generators.h"
#include "util/memory.h"

namespace mbe {
namespace {

TEST(EnumContextTest, AcquireHandsOutClearedBuffers) {
  EnumContext ctx;
  EnumContext::Frame frame(&ctx);
  std::vector<VertexId>* ids = frame.AcquireIds();
  std::vector<uint64_t>* words = frame.AcquireWords();
  EXPECT_TRUE(ids->empty());
  EXPECT_TRUE(words->empty());
  ids->push_back(42);
  words->push_back(7);
  EXPECT_EQ(ctx.live_buffers(), 2u);
}

TEST(EnumContextTest, RewindReturnsBuffersForReuse) {
  EnumContext ctx;
  std::vector<VertexId>* first = nullptr;
  {
    EnumContext::Frame frame(&ctx);
    first = frame.AcquireIds();
    first->assign(100, 1);
  }
  EXPECT_EQ(ctx.live_buffers(), 0u);
  // The pooled buffer comes back cleared but with its capacity retained.
  EnumContext::Frame frame(&ctx);
  std::vector<VertexId>* again = frame.AcquireIds();
  EXPECT_EQ(again, first);
  EXPECT_TRUE(again->empty());
  EXPECT_GE(again->capacity(), 100u);
}

TEST(EnumContextTest, NestedDepthsDoNotDisturbOuterFrames) {
  EnumContext ctx;
  EnumContext::Frame outer(&ctx);
  std::vector<VertexId>* a = outer.AcquireIds();
  a->assign({1, 2, 3});
  std::vector<VertexId>* inner_buf = nullptr;
  {
    EnumContext::Frame inner(&ctx);
    inner_buf = inner.AcquireIds();
    EXPECT_NE(inner_buf, a);
    inner_buf->assign({9, 9});
    // Deeper nesting still.
    {
      EnumContext::Frame deepest(&ctx);
      std::vector<uint64_t>* w = deepest.AcquireWords();
      w->assign(4, ~0ULL);
      EXPECT_EQ(ctx.live_buffers(), 3u);
    }
    EXPECT_EQ(ctx.live_buffers(), 2u);
  }
  // The outer buffer (stable heap address) survived the inner rewinds.
  EXPECT_EQ(*a, (std::vector<VertexId>{1, 2, 3}));
  // A new inner frame reuses the rewound slot.
  EnumContext::Frame inner2(&ctx);
  EXPECT_EQ(inner2.AcquireIds(), inner_buf);
}

TEST(EnumContextTest, RewindAfterGrowthSettlesAccounting) {
  util::MemoryBudget budget;
  util::ScopedBudgetBinding binding(&budget);
  {
    EnumContext ctx;
    EXPECT_EQ(ctx.held_bytes(), 0u);
    uint64_t cap1 = 0;
    {
      EnumContext::Frame frame(&ctx);
      std::vector<VertexId>* ids = frame.AcquireIds();
      ids->resize(1000);  // growth while handed out
      cap1 = ids->capacity() * sizeof(VertexId);
    }
    EXPECT_EQ(ctx.held_bytes(), cap1);
    EXPECT_EQ(budget.charged(), cap1);
    EXPECT_EQ(ctx.peak_bytes(), cap1);
    // Grow the same pooled buffer further on a second use: only the delta
    // is added.
    uint64_t cap2 = 0;
    {
      EnumContext::Frame frame(&ctx);
      std::vector<VertexId>* ids = frame.AcquireIds();
      ids->resize(5000);
      cap2 = ids->capacity() * sizeof(VertexId);
    }
    EXPECT_EQ(ctx.held_bytes(), cap2);
    EXPECT_EQ(budget.charged(), cap2);
    EXPECT_GE(ctx.peak_bytes(), cap2);
    // Trim releases everything; peak accounting is kept.
    ctx.Trim();
    EXPECT_EQ(ctx.held_bytes(), 0u);
    EXPECT_EQ(budget.charged(), 0u);
    EXPECT_GE(ctx.peak_bytes(), cap2);
    // The pool stays usable after a trim.
    EnumContext::Frame frame(&ctx);
    std::vector<VertexId>* ids = frame.AcquireIds();
    ids->push_back(1);
  }
  // Destruction balances the budget even without an explicit Trim.
  EXPECT_EQ(budget.charged(), 0u);
}

TEST(EnumContextTest, ReuseAcrossRunsKeepsCapacityFlat) {
  EnumContext ctx;
  uint64_t settled = 0;
  for (int run = 0; run < 5; ++run) {
    EnumContext::Frame frame(&ctx);
    for (int d = 0; d < 3; ++d) {
      std::vector<VertexId>* ids = frame.AcquireIds();
      std::vector<uint64_t>* words = frame.AcquireWords();
      ids->resize(256);
      words->resize(32);
    }
    // held_bytes stabilizes after the first run: later runs reuse pooled
    // capacity instead of allocating.
    if (run == 1) settled = ctx.held_bytes();
    if (run > 1) {
      EXPECT_EQ(ctx.held_bytes(), settled) << "run=" << run;
    }
  }
}

TEST(EnumContextTest, ParanoidModeFreesOnRewind) {
  util::MemoryBudget budget;
  util::ScopedBudgetBinding binding(&budget);
  EnumContext ctx(/*paranoid=*/true);
  {
    EnumContext::Frame frame(&ctx);
    frame.AcquireIds()->resize(512);
    frame.AcquireWords()->resize(64);
  }
  // Nothing pooled: the rewind freed the allocations outright.
  EXPECT_EQ(ctx.held_bytes(), 0u);
  EXPECT_EQ(budget.charged(), 0u);
  EXPECT_GT(ctx.peak_bytes(), 0u);
  EXPECT_EQ(ctx.live_buffers(), 0u);
  // Outer-frame buffers survive an inner paranoid rewind untouched.
  EnumContext::Frame outer(&ctx);
  std::vector<VertexId>* keep = outer.AcquireIds();
  keep->assign({4, 5, 6});
  {
    EnumContext::Frame inner(&ctx);
    inner.AcquireIds()->resize(128);
  }
  EXPECT_EQ(*keep, (std::vector<VertexId>{4, 5, 6}));
}

// The escape proof: run every engine (serial and parallel) with paranoid
// contexts, where each rewind frees its frame's buffers. Any engine that
// holds a pointer/span into a rewound scratch buffer trips ASan in the
// scripts/check.sh sanitizer leg; in unsanitized builds this still
// cross-checks result counts against the default-context run.
TEST(EnumContextTest, NoScratchEscapesARewoundFrameInAnyEngine) {
  const BipartiteGraph graph = gen::PowerLaw(120, 80, 900, 0.8, 0.8, 77);

  uint64_t want = 0;
  {
    CountSink sink;
    RunResult run;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), RunOptions(), &sink, &run).ok());
    want = sink.count();
  }
  ASSERT_GT(want, 0u);

  EnumContext::SetParanoidForTesting(true);
  // BBK acquires word buffers (its L' bitmaps) on every node, so the
  // word scratch runs through the paranoid frames too.
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kBbk}) {
    // MineLMBC and MBEA have no parallel support.
    const bool parallel_ok = algorithm != Algorithm::kMineLmbc &&
                             algorithm != Algorithm::kMbea;
    for (unsigned threads : {1u, 4u}) {
      if (threads > 1 && !parallel_ok) continue;
      RunOptions options;
      options.algorithm = algorithm;
      options.threads = threads;
      CountSink sink;
      RunResult run;
      ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
      EXPECT_EQ(sink.count(), want)
          << AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
  EnumContext::SetParanoidForTesting(false);
}

}  // namespace
}  // namespace mbe
