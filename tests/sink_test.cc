// Unit tests for the result sinks: counting, collection, callbacks,
// order-independent fingerprints, and the result budget of ControlledSink.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/run_control.h"
#include "core/sink.h"

namespace mbe {
namespace {

void EmitPair(ResultSink& sink, std::vector<VertexId> l,
              std::vector<VertexId> r) {
  sink.Emit(l, r);
}

TEST(CountSinkTest, CountsAndTotals) {
  CountSink sink;
  EmitPair(sink, {1, 2}, {3});
  EmitPair(sink, {1}, {2, 3, 4});
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.left_total(), 3u);
  EXPECT_EQ(sink.right_total(), 4u);
  EXPECT_FALSE(sink.ShouldStop());
}

TEST(CountSinkTest, ThreadSafeCounting) {
  CountSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sink]() {
      for (int i = 0; i < 1000; ++i) EmitPair(sink, {1}, {2});
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.count(), 4000u);
}

TEST(CollectSinkTest, CollectsCopiesAndSorts) {
  CollectSink sink;
  EmitPair(sink, {5}, {6});
  EmitPair(sink, {1, 2}, {3});
  auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (Biclique{{1, 2}, {3}}));
  EXPECT_EQ(results[1], (Biclique{{5}, {6}}));
}

TEST(CallbackSinkTest, ForwardsEveryEmission) {
  int calls = 0;
  size_t total = 0;
  CallbackSink sink([&](std::span<const VertexId> l,
                        std::span<const VertexId> r) {
    ++calls;
    total += l.size() + r.size();
  });
  EmitPair(sink, {1}, {2, 3});
  EmitPair(sink, {4, 5}, {6});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(total, 6u);
}

TEST(FingerprintSinkTest, OrderIndependent) {
  FingerprintSink a, b;
  EmitPair(a, {1, 2}, {3});
  EmitPair(a, {4}, {5, 6});
  EmitPair(a, {7}, {8});

  EmitPair(b, {7}, {8});
  EmitPair(b, {1, 2}, {3});
  EmitPair(b, {4}, {5, 6});
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.count(), 3u);
}

TEST(FingerprintSinkTest, DistinguishesDifferentSets) {
  FingerprintSink a, b;
  EmitPair(a, {1, 2}, {3});
  EmitPair(b, {1}, {2, 3});  // same vertices, different split
  EXPECT_NE(a.Digest(), b.Digest());

  FingerprintSink c, d;
  EmitPair(c, {1}, {2});
  EmitPair(d, {1}, {2});
  EmitPair(d, {1}, {2});  // multiplicity matters
  EXPECT_NE(c.Digest(), d.Digest());
}

// A ControlledSink over a controller whose only limit is `max_results`.
struct Budgeted {
  explicit Budgeted(uint64_t max_results)
      : controller([max_results] {
          RunControl control;
          control.max_results = max_results;
          return control;
        }()),
        sink(&inner, &controller) {}

  CountSink inner;
  RunController controller;
  ControlledSink sink;
};

TEST(ControlledSinkTest, StopsAtMaxResults) {
  Budgeted budget(3);
  EXPECT_FALSE(budget.sink.ShouldStop());
  EmitPair(budget.sink, {1}, {2});
  EmitPair(budget.sink, {1}, {2});
  EXPECT_FALSE(budget.sink.ShouldStop());
  EmitPair(budget.sink, {1}, {2});
  EXPECT_TRUE(budget.sink.ShouldStop());
  EXPECT_EQ(budget.inner.count(), 3u);
  EXPECT_EQ(budget.controller.results(), 3u);
}

TEST(ControlledSinkTest, UnlimitedNeverStops) {
  Budgeted budget(0);
  for (int i = 0; i < 100; ++i) EmitPair(budget.sink, {1}, {2});
  EXPECT_FALSE(budget.sink.ShouldStop());
  EXPECT_EQ(budget.inner.count(), 100u);
}

TEST(ControlledSinkTest, PropagatesInnerStop) {
  // An inner sink that stops immediately.
  class StopSink : public ResultSink {
   public:
    void Emit(std::span<const VertexId>, std::span<const VertexId>) override {}
    bool ShouldStop() const override { return true; }
  };
  StopSink inner;
  RunController controller{RunControl()};
  ControlledSink sink(&inner, &controller);
  EXPECT_TRUE(sink.ShouldStop());
}

TEST(HashBicliqueTest, SideSplitMatters) {
  std::vector<VertexId> a = {1, 2};
  std::vector<VertexId> b = {3};
  std::vector<VertexId> ab = {1, 2, 3};
  std::vector<VertexId> empty;
  EXPECT_NE(HashBiclique(a, b), HashBiclique(b, a));
  EXPECT_NE(HashBiclique(a, b), HashBiclique(ab, empty));
}

TEST(ToStringTest, RendersBothSides) {
  Biclique b{{1, 2}, {7}};
  EXPECT_EQ(ToString(b), "{1,2} x {7}");
}

// --- BicliqueBatch / EmitBatch --------------------------------------------

TEST(BicliqueBatchTest, AppendsAndReadsBack) {
  BicliqueBatch batch;
  EXPECT_TRUE(batch.empty());
  std::vector<VertexId> l1 = {1, 2}, r1 = {3};
  std::vector<VertexId> l2 = {4}, r2 = {5, 6, 7};
  batch.Append(l1, r1);
  batch.Append(l2, r2);
  ASSERT_EQ(batch.size(), 2u);
  // bytes() accounts both the id arena and the per-entry records.
  EXPECT_GE(batch.bytes(), 7 * sizeof(VertexId));
  EXPECT_EQ(std::vector<VertexId>(batch.left(0).begin(), batch.left(0).end()),
            l1);
  EXPECT_EQ(std::vector<VertexId>(batch.right(1).begin(), batch.right(1).end()),
            r2);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.bytes(), 0u);
}

TEST(EmitBatchTest, DefaultForwardsPerItem) {
  // A sink overriding only Emit must still receive every batched biclique.
  class RecordingSink : public ResultSink {
   public:
    void Emit(std::span<const VertexId> left,
              std::span<const VertexId>) override {
      lefts.push_back(std::vector<VertexId>(left.begin(), left.end()));
    }
    std::vector<std::vector<VertexId>> lefts;
  };
  RecordingSink sink;
  BicliqueBatch batch;
  std::vector<VertexId> r = {9};
  for (VertexId i = 0; i < 5; ++i) {
    std::vector<VertexId> l = {i};
    batch.Append(l, r);
  }
  sink.EmitBatch(batch);
  ASSERT_EQ(sink.lefts.size(), 5u);
  EXPECT_EQ(sink.lefts[3], std::vector<VertexId>{3});
}

TEST(EmitBatchTest, FingerprintMatchesPerItemEmission) {
  BicliqueBatch batch;
  FingerprintSink batched, unbatched;
  for (VertexId i = 0; i < 10; ++i) {
    std::vector<VertexId> l = {i, static_cast<VertexId>(i + 1)};
    std::vector<VertexId> r = {static_cast<VertexId>(100 + i)};
    batch.Append(l, r);
    unbatched.Emit(l, r);
  }
  batched.EmitBatch(batch);
  EXPECT_EQ(batched.Digest(), unbatched.Digest());
  EXPECT_EQ(batched.count(), 10u);
}

// --- BufferedSink ----------------------------------------------------------

TEST(BufferedSinkTest, FlushesAtResultThreshold) {
  CountSink inner;
  BufferedSink buffered(&inner, /*max_results=*/4, /*max_bytes=*/1 << 20);
  for (int i = 0; i < 3; ++i) EmitPair(buffered, {1}, {2});
  EXPECT_EQ(inner.count(), 0u) << "flushed before the threshold";
  EXPECT_EQ(buffered.buffered(), 3u);
  EmitPair(buffered, {1}, {2});
  EXPECT_EQ(inner.count(), 4u);
  EXPECT_EQ(buffered.buffered(), 0u);
  EXPECT_EQ(buffered.flushes(), 1u);
}

TEST(BufferedSinkTest, FlushesAtByteThreshold) {
  // Measure the bytes of one buffered biclique, then set the threshold so
  // the second emission trips it (bytes() includes entry records, so the
  // test derives the number instead of hardcoding it).
  BicliqueBatch probe;
  std::vector<VertexId> l = {1, 2, 3}, r = {4, 5};
  probe.Append(l, r);
  const size_t one = probe.bytes();

  CountSink inner;
  BufferedSink buffered(&inner, /*max_results=*/1000, /*max_bytes=*/one + 1);
  EmitPair(buffered, {1, 2, 3}, {4, 5});
  EXPECT_EQ(inner.count(), 0u);
  EmitPair(buffered, {1, 2, 3}, {4, 5});  // 2 * one >= one + 1 -> flush
  EXPECT_EQ(inner.count(), 2u);
  EXPECT_EQ(buffered.flushes(), 1u);
}

TEST(BufferedSinkTest, DestructorFlushesRemainder) {
  CountSink inner;
  {
    BufferedSink buffered(&inner, 100, 1 << 20);
    EmitPair(buffered, {1}, {2});
    EmitPair(buffered, {3}, {4});
    EXPECT_EQ(inner.count(), 0u);
  }
  EXPECT_EQ(inner.count(), 2u);
}

TEST(BufferedSinkTest, ShouldStopForwardsUnbuffered) {
  class StopSink : public ResultSink {
   public:
    void Emit(std::span<const VertexId>, std::span<const VertexId>) override {}
    bool ShouldStop() const override { return stop; }
    bool stop = false;
  };
  StopSink inner;
  BufferedSink buffered(&inner, 100, 1 << 20);
  EXPECT_FALSE(buffered.ShouldStop());
  inner.stop = true;
  EXPECT_TRUE(buffered.ShouldStop()) << "stop must not wait for a flush";
}

TEST(ControlledSinkTest, CountsBatchedEmissions) {
  Budgeted budget(5);
  BicliqueBatch batch;
  std::vector<VertexId> l = {1}, r = {2};
  for (int i = 0; i < 6; ++i) batch.Append(l, r);
  budget.sink.EmitBatch(batch);
  // A batch straddling the bound delivers exactly the admitted prefix.
  EXPECT_EQ(budget.inner.count(), 5u);
  EXPECT_EQ(budget.controller.results(), 5u);
  EXPECT_TRUE(budget.sink.ShouldStop());
}

TEST(ControlledSinkTest, ExactBoundAcrossBatchesAndSingles) {
  Budgeted budget(4);
  BicliqueBatch batch;
  std::vector<VertexId> l = {1}, r = {2};
  for (int i = 0; i < 3; ++i) batch.Append(l, r);
  budget.sink.EmitBatch(batch);  // 3 of 4 admitted
  EXPECT_EQ(budget.inner.count(), 3u);
  EXPECT_FALSE(budget.sink.ShouldStop());
  budget.sink.EmitBatch(batch);  // only 1 seat left
  EXPECT_EQ(budget.inner.count(), 4u);
  EXPECT_TRUE(budget.sink.ShouldStop());
  budget.sink.Emit(l, r);  // singles past the bound are dropped too
  EXPECT_EQ(budget.inner.count(), 4u);
  EXPECT_EQ(budget.controller.results(), 4u);
}

}  // namespace
}  // namespace mbe
