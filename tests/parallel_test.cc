// Unit tests for the thread pool and the parallel enumeration driver.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "api/mbe.h"
#include "core/mbet.h"
#include "gen/generators.h"
#include "parallel/parallel_mbe.h"
#include "parallel/thread_pool.h"

namespace mbe {
namespace {

class ThreadPoolTest
    : public ::testing::TestWithParam<std::tuple<unsigned, Scheduling>> {};

TEST_P(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  const auto [threads, scheduling] = GetParam();
  ThreadPool pool(threads);
  constexpr uint64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, scheduling, [&](uint64_t i, unsigned worker) {
    ASSERT_LT(worker, pool.threads());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThreadPoolTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(Scheduling::kDynamic,
                                         Scheduling::kStatic,
                                         // Degrades to kDynamic for index
                                         // loops (see thread_pool.h).
                                         Scheduling::kStealing)));

TEST(ThreadPoolBasicTest, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, Scheduling::kDynamic,
                   [&](uint64_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolBasicTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolBasicTest, MoreThreadsThanWork) {
  ThreadPool pool(16);
  std::atomic<int> count{0};
  pool.ParallelFor(3, Scheduling::kDynamic,
                   [&](uint64_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolBasicTest, StaticBlocksAreContiguousPerWorker) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::vector<uint64_t>> by_worker(3);
  pool.ParallelFor(30, Scheduling::kStatic, [&](uint64_t i, unsigned w) {
    std::lock_guard<std::mutex> lock(mu);
    by_worker[w].push_back(i);
  });
  for (const auto& indices : by_worker) {
    for (size_t k = 1; k < indices.size(); ++k) {
      EXPECT_EQ(indices[k], indices[k - 1] + 1) << "non-contiguous block";
    }
  }
}

// --- ParallelEnumerate --------------------------------------------------------

class CountingWorker : public SubtreeWorker {
 public:
  explicit CountingWorker(const BipartiteGraph& graph,
                          std::atomic<int>* created = nullptr)
      : engine_(graph, MbetOptions{}) {
    if (created != nullptr) created->fetch_add(1);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbetEnumerator engine_;
};

TEST(ParallelEnumerateTest, MergesStatsAcrossWorkers) {
  BipartiteGraph graph = gen::PowerLaw(150, 100, 800, 0.8, 0.8, 44);

  // Serial reference.
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  std::atomic<int> created{0};
  ParallelOptions options;
  options.threads = 4;
  CountSink parallel_sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph, &created]() {
        return std::make_unique<CountingWorker>(graph, &created);
      },
      options, &parallel_sink);

  EXPECT_EQ(parallel_sink.count(), serial_sink.count());
  EXPECT_EQ(merged.maximal, serial.stats().maximal);
  EXPECT_EQ(merged.nodes_expanded, serial.stats().nodes_expanded);
  EXPECT_EQ(merged.non_maximal, serial.stats().non_maximal);
  EXPECT_GE(created.load(), 1);
  EXPECT_LE(created.load(), 4);
}

TEST(ParallelEnumerateTest, EmptyGraph) {
  BipartiteGraph graph;
  ParallelOptions options;
  options.threads = 4;
  CountSink sink;
  EnumStats stats = ParallelEnumerate(
      graph,
      [&graph]() {
        return std::make_unique<CountingWorker>(graph);
      },
      options, &sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.maximal, 0u);
}

// Split-capable worker: forwards the full SubtreeWorker surface to an
// MbetEnumerator (mirrors the api-layer adapter).
class SplittingWorker : public SubtreeWorker {
 public:
  explicit SplittingWorker(const BipartiteGraph& graph)
      : engine_(graph, MbetOptions{}) {}
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  uint32_t SplitHint(VertexId v, uint32_t max_shards,
                     uint64_t min_work) override {
    return engine_.SplitHint(v, max_shards, min_work);
  }
  void EnumerateShard(VertexId v, uint32_t shard, uint32_t num_shards,
                      ResultSink* sink) override {
    engine_.EnumerateShard(v, shard, num_shards, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbetEnumerator engine_;
};

TEST(WorkStealingDriverTest, SplitsHeavySubtreeAndMatchesSerial) {
  // Hub graph: subtree(0) holds nearly all work, plus a light tail.
  BipartiteGraph graph = gen::HubBlock(/*block_left=*/60, /*block_right=*/40,
                                       /*tail_left=*/60, /*tail_right=*/120,
                                       /*p_in=*/0.4, /*p_tail=*/0.02, 7);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);
  ASSERT_GT(serial_sink.count(), 100u);

  ParallelOptions options;
  options.threads = 8;
  options.scheduling = Scheduling::kStealing;
  options.split_min_work = 64;  // low bar so the hub subtree surely splits
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);

  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.maximal, serial.stats().maximal);
  EXPECT_GT(merged.split_tasks, 0u) << "hub subtree was never split";
  EXPECT_GT(merged.sink_flushes, 0u);
  EXPECT_GT(merged.busy_ns, 0u);
}

TEST(WorkStealingDriverTest, SplitDisabledStillMatchesSerial) {
  BipartiteGraph graph = gen::HubBlock(40, 30, 40, 60, 0.4, 0.03, 8);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 4;
  options.scheduling = Scheduling::kStealing;
  options.max_split = 1;  // stealing without splitting
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.split_tasks, 0u);
}

TEST(WorkStealingDriverTest, DefaultWorkerWithoutSplitSupport) {
  // CountingWorker inherits the SplitHint=1 default: the scheduler must
  // run every subtree whole and still match the serial result.
  BipartiteGraph graph = gen::PowerLaw(150, 100, 900, 0.85, 0.8, 46);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 8;
  options.scheduling = Scheduling::kStealing;
  options.split_min_work = 1;  // an eager bar, but the worker can't split
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph, [&graph]() { return std::make_unique<CountingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.split_tasks, 0u);
  EXPECT_EQ(merged.nodes_expanded, serial.stats().nodes_expanded);
}

TEST(WorkStealingDriverTest, SingleThreadStealingMatchesSerial) {
  BipartiteGraph graph = gen::HubBlock(30, 25, 20, 40, 0.4, 0.05, 9);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 1;
  options.scheduling = Scheduling::kStealing;
  options.split_min_work = 32;
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.steals, 0u) << "one worker has nobody to steal from";
}

TEST(ParallelEnumerateTest, StopRequestHaltsWorkers) {
  BipartiteGraph graph = gen::PowerLaw(300, 200, 2000, 0.85, 0.8, 45);
  CountSink inner;
  RunControl control;
  control.max_results = 100;
  RunController controller(control);
  ControlledSink budget(&inner, &controller);
  ParallelOptions options;
  options.threads = 4;
  ParallelEnumerate(
      graph,
      [&graph]() {
        return std::make_unique<CountingWorker>(graph);
      },
      options, &budget);
  // Workers poll ShouldStop between nodes and stop once the budget trips;
  // emissions past it are dropped, so the sink holds exactly the budget.
  const uint64_t full =
      CountMaximalBicliques(graph, GraphOptions(), RunOptions());
  EXPECT_EQ(controller.termination(), Termination::kBudget);
  EXPECT_EQ(inner.count(), 100u);
  EXPECT_LT(inner.count(), full);
}

}  // namespace
}  // namespace mbe
