// Unit tests for the parallel enumeration driver: scheduling (every seeded
// subtree runs exactly once), stats merging and run control.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/mbe.h"
#include "core/mbet.h"
#include "gen/generators.h"
#include "parallel/parallel_mbe.h"
#include "snapshot/frontier.h"

namespace mbe {
namespace {

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

TEST(WorkStealingDriverTest, HeavySubtreeRunsWholeAndMatchesSerial) {
  // Hub graphs: subtree(0) holds nearly all work, plus a light tail. The
  // hub subtree runs whole on one worker while the others steal the tail,
  // so every counter matches the serial run exactly.
  for (const BipartiteGraph& graph :
       {gen::HubBlock(/*block_left=*/60, /*block_right=*/40,
                      /*tail_left=*/60, /*tail_right=*/120, /*p_in=*/0.4,
                      /*p_tail=*/0.02, 7),
        gen::HubBlock(40, 30, 40, 60, 0.4, 0.03, 8)}) {
    CountSink serial_sink;
    MbetEnumerator serial(graph, MbetOptions{});
    serial.EnumerateAll(&serial_sink);
    ASSERT_GT(serial_sink.count(), 100u);

    ParallelOptions options;
    options.threads = 8;
    CountSink sink;
    EnumStats merged = ParallelEnumerate(
        graph, [&graph]() { return std::make_unique<CountingWorker>(graph); },
        options, &sink);

    EXPECT_EQ(sink.count(), serial_sink.count());
    EXPECT_EQ(merged.maximal, serial.stats().maximal);
    EXPECT_EQ(merged.nodes_expanded, serial.stats().nodes_expanded);
    EXPECT_EQ(merged.split_tasks, 0u);
    EXPECT_GT(merged.sink_flushes, 0u);
    EXPECT_GT(merged.busy_ns, 0u);
  }
}

TEST(WorkStealingDriverTest, SingleThreadStealingMatchesSerial) {
  BipartiteGraph graph = gen::HubBlock(30, 25, 20, 40, 0.4, 0.05, 9);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 1;
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph, [&graph]() { return std::make_unique<CountingWorker>(graph); },
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

// --- Scheduling: every seeded subtree runs exactly once ----------------------

/// Records which subtrees the driver hands out, without enumerating them:
/// the scheduling properties below are independent of the engine.
class RecordingWorker : public SubtreeWorker {
 public:
  RecordingWorker(std::vector<std::atomic<int>>* hits,
                  std::vector<VertexId>* order = nullptr,
                  VertexId throw_at = kInvalidVertex)
      : hits_(hits), order_(order), throw_at_(throw_at) {}
  void EnumerateSubtree(VertexId v, ResultSink*) override {
    if (v == throw_at_) throw std::runtime_error("worker failure");
    (*hits_)[v].fetch_add(1, std::memory_order_relaxed);
    if (order_ != nullptr) order_->push_back(v);  // single-worker runs only
  }
  EnumStats stats() const override { return EnumStats{}; }

 private:
  std::vector<std::atomic<int>>* hits_;
  std::vector<VertexId>* order_;
  VertexId throw_at_;
};

/// Runs the driver over `graph` with recording workers; returns the
/// number of workers the factory built.
int RecordRun(const BipartiteGraph& graph, unsigned threads,
              std::vector<std::atomic<int>>* hits,
              snapshot::TaskFrontier* frontier = nullptr) {
  std::atomic<int> created{0};
  ParallelOptions options;
  options.threads = threads;
  options.frontier = frontier;
  CountSink sink;
  ParallelEnumerate(
      graph,
      [&]() {
        created.fetch_add(1);
        return std::make_unique<RecordingWorker>(hits);
      },
      options, &sink);
  return created.load();
}

enum class SeedShape { kUniform, kSkewed, kEdgeless };

BipartiteGraph GraphOfShape(SeedShape shape) {
  constexpr size_t kRoots = 3000;
  switch (shape) {
    case SeedShape::kUniform:
      return gen::ErdosRenyi(40, kRoots, 0.01, 51);
    case SeedShape::kSkewed:
      return gen::PowerLaw(200, kRoots, 6000, 0.8, 1.2, 52);
    case SeedShape::kEdgeless:
      return BipartiteGraph::FromEdges(5, kRoots, {});
  }
  return BipartiteGraph();
}

std::string StealingDriverCaseName(
    const ::testing::TestParamInfo<std::tuple<unsigned, SeedShape>>& info) {
  static const char* const kShapes[] = {"Uniform", "Skewed", "Edgeless"};
  return "T" + std::to_string(std::get<0>(info.param)) + "_" +
         kShapes[static_cast<int>(std::get<1>(info.param))];
}

class StealingDriverTest
    : public ::testing::TestWithParam<std::tuple<unsigned, SeedShape>> {};

TEST_P(StealingDriverTest, EveryRootRunsExactlyOnce) {
  const auto [threads, shape] = GetParam();
  const BipartiteGraph graph = GraphOfShape(shape);
  std::vector<std::atomic<int>> hits(graph.num_right());
  const int created = RecordRun(graph, threads, &hits);
  EXPECT_GE(created, 1);
  EXPECT_LE(created, static_cast<int>(threads));
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StealingDriverTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(SeedShape::kUniform,
                                         SeedShape::kSkewed,
                                         SeedShape::kEdgeless)),
    StealingDriverCaseName);

TEST(StealingDriverBasicTest, ZeroRootsBuildsNoWorker) {
  const BipartiteGraph graph = BipartiteGraph::FromEdges(7, 0, {});
  std::vector<std::atomic<int>> hits(1);
  EXPECT_EQ(RecordRun(graph, 4, &hits), 0);
  EXPECT_EQ(hits[0].load(), 0);
}

TEST(StealingDriverBasicTest, ClampsToAtLeastOneThread) {
  const BipartiteGraph graph = gen::ErdosRenyi(20, 50, 0.2, 53);
  std::vector<std::atomic<int>> hits(graph.num_right());
  EXPECT_EQ(RecordRun(graph, /*threads=*/0, &hits), 1);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

TEST(StealingDriverBasicTest, MoreThreadsThanWork) {
  // Three seed tasks: the driver builds at most one worker per task.
  const BipartiteGraph graph =
      BipartiteGraph::FromEdges(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}});
  std::vector<std::atomic<int>> hits(graph.num_right());
  const int created = RecordRun(graph, /*threads=*/16, &hits);
  EXPECT_GE(created, 1);
  EXPECT_LE(created, 3);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

TEST(StealingDriverBasicTest, SingleWorkerRunsHeaviestSeedFirst) {
  // One worker owns every seed and pops its deque LIFO; seeds are pushed
  // right-degree ascending, so it runs them degree-descending.
  const BipartiteGraph graph = gen::PowerLaw(100, 400, 1500, 0.8, 1.0, 54);
  std::vector<std::atomic<int>> hits(graph.num_right());
  std::vector<VertexId> order;
  ParallelOptions options;
  options.threads = 1;
  CountSink sink;
  ParallelEnumerate(
      graph,
      [&]() { return std::make_unique<RecordingWorker>(&hits, &order); },
      options, &sink);
  ASSERT_EQ(order.size(), graph.num_right());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(graph.RightDegree(order[i - 1]), graph.RightDegree(order[i]))
        << "position " << i;
  }
  EXPECT_EQ(graph.RightDegree(order.front()), graph.MaxRightDegree());
}

TEST(StealingDriverBasicTest, FrontierSeedsOnlyItsPendingTasks) {
  // A durable run takes its seeds from the frontier, not the right side:
  // subtrees absent from it (completed earlier, or another process
  // shard's) never run, and every seeded one completes exactly once.
  const BipartiteGraph graph = gen::ErdosRenyi(30, 200, 0.1, 55);
  snapshot::TaskFrontier frontier(/*algorithm=*/0, 0, 1, graph);
  for (VertexId v = 0; v < graph.num_right(); v += 2) {
    frontier.AddPending(EncodeTask(v));
  }
  const size_t seeded = frontier.pending_count();
  std::vector<std::atomic<int>> hits(graph.num_right());
  RecordRun(graph, /*threads=*/4, &hits, &frontier);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    EXPECT_EQ(hits[v].load(), v % 2 == 0 ? 1 : 0) << "subtree " << v;
  }
  EXPECT_EQ(frontier.pending_count(), 0u);
  EXPECT_EQ(frontier.completed_count(), seeded);
}

TEST(StealingDriverBasicTest, WorkerExceptionWithoutControllerRethrows) {
  // No controller to report to: the first worker failure is rethrown to
  // the caller once the fleet has drained and joined.
  const BipartiteGraph graph = gen::ErdosRenyi(20, 100, 0.2, 56);
  std::vector<std::atomic<int>> hits(graph.num_right());
  ParallelOptions options;
  options.threads = 4;
  CountSink sink;
  EXPECT_THROW(ParallelEnumerate(
                   graph,
                   [&]() {
                     return std::make_unique<RecordingWorker>(
                         &hits, nullptr, /*throw_at=*/VertexId{17});
                   },
                   options, &sink),
               std::runtime_error);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    EXPECT_LE(hits[v].load(), 1) << "subtree " << v;
  }
}

}  // namespace
}  // namespace mbe
