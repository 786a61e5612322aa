// Tests for the one task runtime, SessionPool (api/session_pool.h), as
// every parallel and durable standalone run uses it: scheduling (every
// task runs exactly once; one worker claims in task-index order and
// alternates sessions by claims), stats and kernel-call merging, run
// control, failure containment (a failed durable task stays pending),
// and result digests identical across thread counts and durability.
// These suites are also the payload of the TSan leg in scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/mbe.h"
#include "api/session_pool.h"
#include "gen/generators.h"
#include "snapshot/frontier.h"

namespace mbe {
namespace {

std::shared_ptr<const Engine> BuildEngine(const BipartiteGraph& graph,
                                          bool swap_sides = true) {
  GraphOptions options;
  options.auto_swap_sides = swap_sides;
  auto engine = Engine::Build(graph, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Runs a prepared session to completion on a fresh pool of `threads`.
RunResult RunOnPool(const std::shared_ptr<Session>& session,
                    unsigned threads) {
  SessionPool pool(threads);
  RunResult result;
  pool.Submit(session, [&result](const RunResult& r) { result = r; });
  pool.Shutdown();
  return result;
}

/// A session that counts the workers the pool builds for it.
class CountingSession : public Session {
 public:
  using Session::Session;
  std::unique_ptr<SubtreeWorker> MakeWorker() const override {
    created_.fetch_add(1);
    return Session::MakeWorker();
  }
  int created() const { return created_.load(); }

 private:
  mutable std::atomic<int> created_{0};
};

/// Runs `options` standalone on a fresh session over `engine`.
RunResult RunStandalone(const std::shared_ptr<const Engine>& engine,
                        const RunOptions& options, ResultSink* sink,
                        int* created = nullptr) {
  CountingSession session(engine, options);
  RunResult result;
  const util::Status status = session.Run(sink, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (created != nullptr) *created = session.created();
  return result;
}

// --- Standalone runs on a private pool ---------------------------------------

TEST(SessionPoolRunTest, MergesStatsAcrossWorkers) {
  auto engine = BuildEngine(gen::PowerLaw(150, 100, 800, 0.8, 0.8, 44));
  CountSink serial_sink;
  const RunResult serial = RunStandalone(engine, RunOptions{}, &serial_sink);

  RunOptions options;
  options.threads = 4;
  CountSink sink;
  int created = 0;
  const RunResult run = RunStandalone(engine, options, &sink, &created);

  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(run.stats.maximal, serial.stats.maximal);
  EXPECT_EQ(run.stats.nodes_expanded, serial.stats.nodes_expanded);
  EXPECT_EQ(run.stats.non_maximal, serial.stats.non_maximal);
  EXPECT_GE(created, 1);
  EXPECT_LE(created, 4);
}

TEST(SessionPoolRunTest, EmptyGraph) {
  auto engine = BuildEngine(BipartiteGraph());
  RunOptions options;
  options.threads = 4;
  CountSink sink;
  const RunResult run = RunStandalone(engine, options, &sink);
  EXPECT_TRUE(run.complete());
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(run.stats.maximal, 0u);
}

TEST(SessionPoolRunTest, StopRequestHaltsWorkers) {
  const BipartiteGraph graph = gen::PowerLaw(300, 200, 2000, 0.85, 0.8, 45);
  RunOptions options;
  options.threads = 4;
  options.control.max_results = 100;
  CountSink sink;
  const RunResult run = RunStandalone(BuildEngine(graph), options, &sink);
  // Workers poll ShouldStop between nodes and stop once the budget trips;
  // emissions past it are dropped, so the sink holds exactly the budget.
  const uint64_t full =
      CountMaximalBicliques(graph, GraphOptions(), RunOptions());
  EXPECT_EQ(run.termination, Termination::kBudget);
  EXPECT_EQ(sink.count(), 100u);
  EXPECT_LT(sink.count(), full);
}

TEST(SessionPoolRunTest, HeavySubtreeRunsWholeAndMatchesSerial) {
  // Hub graphs: one subtree holds nearly all work, plus a light tail. The
  // hub subtree runs whole on one worker while the others drain the tail,
  // so every counter matches the serial run exactly.
  for (const BipartiteGraph& graph :
       {gen::HubBlock(/*block_left=*/60, /*block_right=*/40,
                      /*tail_left=*/60, /*tail_right=*/120, /*p_in=*/0.4,
                      /*p_tail=*/0.02, 7),
        gen::HubBlock(40, 30, 40, 60, 0.4, 0.03, 8)}) {
    auto engine = BuildEngine(graph);
    CountSink serial_sink;
    const RunResult serial =
        RunStandalone(engine, RunOptions{}, &serial_sink);
    ASSERT_GT(serial_sink.count(), 100u);

    RunOptions options;
    options.threads = 8;
    CountSink sink;
    const RunResult run = RunStandalone(engine, options, &sink);

    EXPECT_EQ(sink.count(), serial_sink.count());
    EXPECT_EQ(run.stats.maximal, serial.stats.maximal);
    EXPECT_EQ(run.stats.nodes_expanded, serial.stats.nodes_expanded);
    EXPECT_EQ(run.stats.split_tasks, 0u);
    EXPECT_GT(run.stats.sink_flushes, 0u);
    EXPECT_GT(run.stats.busy_ns, 0u);
  }
}

TEST(SessionPoolRunTest, SingleWorkerMatchesSerial) {
  auto engine = BuildEngine(gen::HubBlock(30, 25, 20, 40, 0.4, 0.05, 9));
  CountSink serial_sink;
  const RunResult serial = RunStandalone(engine, RunOptions{}, &serial_sink);

  auto session = std::make_shared<Session>(engine, RunOptions{});
  CountSink sink;
  ASSERT_TRUE(session->Prepare(&sink).ok());
  const RunResult run = RunOnPool(session, 1);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(run.stats.maximal, serial.stats.maximal);
  EXPECT_EQ(run.stats.steals, 0u) << "nothing steals any more";
}

TEST(SessionPoolRunTest, KernelCallsAreIndependentOfThreadCount) {
  // Each task's kernel calls are read from the executing thread's counters
  // around that task, so however the subtrees spread over workers the
  // session's totals are those of the one-worker run — none lost, none
  // counted twice.
  auto engine = BuildEngine(gen::PowerLaw(150, 100, 800, 0.8, 0.8, 46));
  for (Algorithm algorithm : {Algorithm::kMbea, Algorithm::kImbea}) {
    RunOptions options;
    options.algorithm = algorithm;
    auto solo = std::make_shared<Session>(engine, options);
    CountSink solo_sink;
    ASSERT_TRUE(solo->Prepare(&solo_sink).ok());
    const EnumStats want = RunOnPool(solo, 1).stats;
    ASSERT_GT(want.simd_mask_calls, 0u) << AlgorithmName(algorithm);
    for (unsigned threads : {2u, 4u}) {
      options.threads = threads;
      CountSink sink;
      const EnumStats got = RunStandalone(engine, options, &sink).stats;
      EXPECT_EQ(got.simd_intersect_calls, want.simd_intersect_calls)
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_EQ(got.simd_mask_calls, want.simd_mask_calls)
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_EQ(got.simd_word_calls, want.simd_word_calls)
          << AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

TEST(SessionPoolRunTest, OnlyPoolRunsReportWorkerTime) {
  // The inline one-thread run never touches a pool: no task time, no
  // queue wait. The same query at four threads runs on a private pool,
  // whose per-slot task time and sink flushes reach the result.
  auto engine = BuildEngine(gen::PowerLaw(150, 100, 800, 0.8, 0.8, 47));
  CountSink inline_sink;
  const RunResult inline_run =
      RunStandalone(engine, RunOptions{}, &inline_sink);
  ASSERT_GT(inline_sink.count(), 0u);
  EXPECT_EQ(inline_run.stats.busy_ns, 0u);
  EXPECT_EQ(inline_run.stats.idle_ns, 0u);
  EXPECT_EQ(inline_run.stats.queue_wait_ns, 0u);

  RunOptions options;
  options.threads = 4;
  CountSink sink;
  const RunResult run = RunStandalone(engine, options, &sink);
  EXPECT_EQ(sink.count(), inline_sink.count());
  EXPECT_GT(run.stats.busy_ns, 0u);
  EXPECT_GT(run.stats.sink_flushes, 0u);
}

// --- Scheduling: every task runs exactly once --------------------------------

/// Records which subtrees the pool hands out, without enumerating them:
/// the scheduling properties below are independent of the engine.
class RecordingWorker : public SubtreeWorker {
 public:
  RecordingWorker(std::vector<std::atomic<int>>* hits,
                  std::vector<VertexId>* order, VertexId throw_at)
      : hits_(hits), order_(order), throw_at_(throw_at) {}
  void EnumerateSubtree(VertexId v, ResultSink*) override {
    if (v == throw_at_) throw std::runtime_error("worker failure");
    (*hits_)[v].fetch_add(1, std::memory_order_relaxed);
    if (order_ != nullptr) order_->push_back(v);  // single-worker runs only
  }
  void EnumerateAll(ResultSink*) override {
    ADD_FAILURE() << "the pool runs subtree tasks only";
  }
  EnumStats stats() const override { return EnumStats{}; }

 private:
  std::vector<std::atomic<int>>* hits_;
  std::vector<VertexId>* order_;
  VertexId throw_at_;
};

/// A session whose workers record instead of enumerating.
class RecordingSession : public Session {
 public:
  RecordingSession(std::shared_ptr<const Engine> engine, RunOptions options,
                   std::vector<std::atomic<int>>* hits,
                   std::vector<VertexId>* order = nullptr,
                   VertexId throw_at = kInvalidVertex)
      : Session(std::move(engine), std::move(options)),
        hits_(hits),
        order_(order),
        throw_at_(throw_at) {}
  std::unique_ptr<SubtreeWorker> MakeWorker() const override {
    created_.fetch_add(1);
    return std::make_unique<RecordingWorker>(hits_, order_, throw_at_);
  }
  int created() const { return created_.load(); }

 private:
  std::vector<std::atomic<int>>* hits_;
  std::vector<VertexId>* order_;
  VertexId throw_at_;
  mutable std::atomic<int> created_{0};
};

/// Runs a recording session over `engine` on a pool of `threads`; returns
/// the number of workers the pool built.
int RecordRun(const std::shared_ptr<const Engine>& engine, unsigned threads,
              std::vector<std::atomic<int>>* hits,
              std::vector<VertexId>* order = nullptr) {
  auto session = std::make_shared<RecordingSession>(engine, RunOptions{},
                                                    hits, order);
  CountSink sink;
  EXPECT_TRUE(session->Prepare(&sink).ok());
  RunOnPool(session, threads);
  return session->created();
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

std::string SchedulingCaseName(
    const ::testing::TestParamInfo<std::tuple<unsigned, SeedShape>>& info) {
  static const char* const kShapes[] = {"Uniform", "Skewed", "Edgeless"};
  return "T" + std::to_string(std::get<0>(info.param)) + "_" +
         kShapes[static_cast<int>(std::get<1>(info.param))];
}

class SessionPoolSchedulingTest
    : public ::testing::TestWithParam<std::tuple<unsigned, SeedShape>> {};

TEST_P(SessionPoolSchedulingTest, EveryTaskRunsExactlyOnce) {
  const auto [threads, shape] = GetParam();
  auto engine = BuildEngine(GraphOfShape(shape), /*swap_sides=*/false);
  const size_t tasks = engine->graph().num_right();
  std::vector<std::atomic<int>> hits(tasks);
  const int created = RecordRun(engine, threads, &hits);
  EXPECT_GE(created, 1);
  EXPECT_LE(created, static_cast<int>(threads));
  for (VertexId v = 0; v < tasks; ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SessionPoolSchedulingTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(SeedShape::kUniform,
                                         SeedShape::kSkewed,
                                         SeedShape::kEdgeless)),
    SchedulingCaseName);

TEST(SessionPoolBasicTest, ZeroTasksBuildsNoWorker) {
  auto engine = BuildEngine(BipartiteGraph::FromEdges(7, 0, {}),
                            /*swap_sides=*/false);
  ASSERT_EQ(engine->graph().num_right(), 0u);
  std::vector<std::atomic<int>> hits(1);
  EXPECT_EQ(RecordRun(engine, 4, &hits), 0);
  EXPECT_EQ(hits[0].load(), 0);
}

TEST(SessionPoolBasicTest, ClampsToAtLeastOneThread) {
  auto engine = BuildEngine(gen::ErdosRenyi(20, 50, 0.2, 53));
  std::vector<std::atomic<int>> hits(engine->graph().num_right());
  EXPECT_EQ(SessionPool(0).threads(), 1u);
  EXPECT_EQ(RecordRun(engine, /*threads=*/0, &hits), 1);
  for (VertexId v = 0; v < hits.size(); ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

TEST(SessionPoolBasicTest, MoreThreadsThanTasks) {
  // Three tasks: a standalone run sizes its private pool to
  // min(threads, tasks), so at most one worker per task is built.
  auto engine = BuildEngine(
      BipartiteGraph::FromEdges(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}}),
      /*swap_sides=*/false);
  ASSERT_EQ(engine->graph().num_right(), 3u);
  std::vector<std::atomic<int>> hits(3);
  RunOptions options;
  options.threads = 16;
  RecordingSession session(engine, options, &hits);
  CountSink sink;
  ASSERT_TRUE(session.Run(&sink).ok());
  EXPECT_GE(session.created(), 1);
  EXPECT_LE(session.created(), 3);
  for (VertexId v = 0; v < hits.size(); ++v) {
    EXPECT_EQ(hits[v].load(), 1) << "subtree " << v;
  }
}

TEST(SessionPoolBasicTest, SingleWorkerClaimsInTaskIndexOrder) {
  // One worker claims a session's tasks through its one shared cursor:
  // ascending seed vertex, whatever the subtrees weigh.
  auto engine = BuildEngine(gen::PowerLaw(100, 400, 1500, 0.8, 1.0, 54));
  const size_t tasks = engine->graph().num_right();
  std::vector<std::atomic<int>> hits(tasks);
  std::vector<VertexId> order;
  RecordRun(engine, 1, &hits, &order);
  ASSERT_EQ(order.size(), tasks);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<VertexId>(i)) << "position " << i;
  }
}

TEST(SessionPoolBasicTest, FrontierSeedsOnlyItsPendingTasks) {
  // A durable run takes its tasks from its frontier, not the right side:
  // subtrees absent from it (another process shard's here) never run, and
  // every seeded one completes exactly once.
  auto engine = BuildEngine(gen::ErdosRenyi(30, 200, 0.1, 55),
                            /*swap_sides=*/false);
  const size_t tasks = engine->graph().num_right();
  const std::string path = testing::TempDir() + "/pool-frontier-seeds.pmbf";
  std::remove(path.c_str());
  RunOptions options;
  options.threads = 4;
  options.checkpoint.path = path;
  options.checkpoint.every_s = 0;
  options.checkpoint.shard_index = 0;
  options.checkpoint.shard_count = 2;
  std::vector<std::atomic<int>> hits(tasks);
  RecordingSession session(engine, options, &hits);
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(session.Run(&sink, &run).ok());
  std::remove(path.c_str());
  uint64_t seeded = 0;
  for (VertexId v = 0; v < tasks; ++v) {
    const bool mine = snapshot::ShardOfSeed(v, 2) == 0;
    seeded += mine;
    EXPECT_EQ(hits[v].load(), mine ? 1 : 0) << "subtree " << v;
  }
  ASSERT_GT(seeded, 0u);
  ASSERT_LT(seeded, tasks);
  EXPECT_EQ(run.frontier_pending, 0u);
  EXPECT_EQ(run.frontier_completed, seeded);
  EXPECT_EQ(run.stats.checkpoints_written, 1u);
}

TEST(SessionPoolBasicTest, WorkerExceptionWithoutControllerIsInternalStatus) {
  // No controller to report to: the first task failure stops the session
  // and Run returns it as an Internal status once the pool has drained.
  auto engine = BuildEngine(gen::ErdosRenyi(20, 100, 0.2, 56),
                            /*swap_sides=*/false);
  std::vector<std::atomic<int>> hits(engine->graph().num_right());
  RunOptions options;
  options.threads = 4;
  RecordingSession session(engine, options, &hits, nullptr,
                           /*throw_at=*/VertexId{17});
  CountSink sink;
  const util::Status status = session.Run(&sink);
  EXPECT_EQ(status.code(), util::StatusCode::kInternal) << status.ToString();
  for (VertexId v = 0; v < hits.size(); ++v) {
    EXPECT_LE(hits[v].load(), 1) << "subtree " << v;
  }
}

TEST(SessionPoolBasicTest, FailedDurableTaskStaysPendingAndResumesOnce) {
  // A task that throws is never committed to the frontier: the failed run
  // ends kInternal with that task and every unclaimed one pending, and a
  // resume runs exactly those — the failed one included — once each.
  auto engine = BuildEngine(gen::ErdosRenyi(20, 60, 0.2, 57),
                            /*swap_sides=*/false);
  const size_t tasks = engine->graph().num_right();
  constexpr VertexId kFailing = 17;
  const std::string path = testing::TempDir() + "/pool-failed-task.pmbf";
  std::remove(path.c_str());
  RunOptions options;
  options.threads = 1;  // one worker: tasks 0..16 complete before the throw
  options.checkpoint.path = path;
  options.checkpoint.every_s = 3600;
  options.control.deadline_seconds = 3600;  // a controller types the failure

  std::vector<std::atomic<int>> first_hits(tasks);
  RecordingSession failing(engine, options, &first_hits, nullptr, kFailing);
  CountSink sink;
  RunResult first;
  ASSERT_TRUE(failing.Run(&sink, &first).ok());
  EXPECT_EQ(first.termination, Termination::kInternal);
  EXPECT_EQ(first.frontier_completed, uint64_t{kFailing});
  EXPECT_EQ(first.frontier_pending, tasks - kFailing);

  options.checkpoint.resume = true;
  options.control.deadline_seconds = 0;
  std::vector<std::atomic<int>> resumed_hits(tasks);
  RecordingSession resuming(engine, options, &resumed_hits);
  RunResult resumed;
  ASSERT_TRUE(resuming.Run(&sink, &resumed).ok());
  std::remove(path.c_str());
  EXPECT_EQ(resumed.termination, Termination::kComplete);
  EXPECT_EQ(resumed.frontier_pending, 0u);
  EXPECT_EQ(resumed.frontier_completed, tasks);
  for (VertexId v = 0; v < tasks; ++v) {
    EXPECT_EQ(first_hits[v].load(), v < kFailing ? 1 : 0) << "subtree " << v;
    EXPECT_EQ(resumed_hits[v].load(), v < kFailing ? 0 : 1)
        << "subtree " << v;
  }
}

/// Logs (session tag, subtree) in claim order, for one-worker pools, after
/// calling the session's pickup hook.
class TaggingWorker : public SubtreeWorker {
 public:
  TaggingWorker(int tag, std::vector<std::pair<int, VertexId>>* log,
                const std::function<void()>* on_pickup)
      : tag_(tag), log_(log), on_pickup_(on_pickup) {}
  void EnumerateSubtree(VertexId v, ResultSink*) override {
    if (*on_pickup_) (*on_pickup_)();
    log_->emplace_back(tag_, v);
  }
  void EnumerateAll(ResultSink*) override {
    ADD_FAILURE() << "the pool runs subtree tasks only";
  }
  EnumStats stats() const override { return EnumStats{}; }

 private:
  int tag_;
  std::vector<std::pair<int, VertexId>>* log_;
  const std::function<void()>* on_pickup_;
};

class TaggingSession : public Session {
 public:
  TaggingSession(std::shared_ptr<const Engine> engine, int tag,
                 std::vector<std::pair<int, VertexId>>* log,
                 std::function<void()> on_pickup = nullptr)
      : Session(std::move(engine), RunOptions{}),
        tag_(tag),
        log_(log),
        on_pickup_(std::move(on_pickup)) {}
  std::unique_ptr<SubtreeWorker> MakeWorker() const override {
    return std::make_unique<TaggingWorker>(tag_, log_, &on_pickup_);
  }

 private:
  int tag_;
  std::vector<std::pair<int, VertexId>>* log_;
  std::function<void()> on_pickup_;
};

TEST(SessionPoolBasicTest, OneWorkerAlternatesSessionsByClaims) {
  // Across sessions the rotation is round-robin by claims: once both are
  // queued, one worker alternates between them task by task until the
  // shorter runs out; within each, tasks go in index order. The first
  // session's first task holds the worker until the second is queued.
  auto long_engine = BuildEngine(BipartiteGraph::FromEdges(1, 12, {}),
                                 /*swap_sides=*/false);
  auto short_engine = BuildEngine(BipartiteGraph::FromEdges(1, 5, {}),
                                  /*swap_sides=*/false);
  std::promise<void> claimed;
  std::promise<void> both_queued;
  std::shared_future<void> gate = both_queued.get_future().share();
  bool first_pickup = true;  // touched only by the one pool worker
  std::vector<std::pair<int, VertexId>> log;
  auto first = std::make_shared<TaggingSession>(long_engine, 0, &log, [&] {
    if (!first_pickup) return;
    first_pickup = false;
    claimed.set_value();
    gate.wait();
  });
  auto second = std::make_shared<TaggingSession>(short_engine, 1, &log);
  CountSink first_sink, second_sink;
  ASSERT_TRUE(first->Prepare(&first_sink).ok());
  ASSERT_TRUE(second->Prepare(&second_sink).ok());
  {
    SessionPool pool(1);
    pool.Submit(first, nullptr);
    claimed.get_future().wait();  // the worker holds the first's task 0
    pool.Submit(second, nullptr);
    both_queued.set_value();
    pool.Shutdown();
  }
  // Task 0 of the first session was claimed alone; then the rotation
  // resumes at the first session: 1st, 2nd, 1st, ...
  const std::vector<std::pair<int, VertexId>> want = {
      {0, 0}, {0, 1}, {1, 0}, {0, 2},  {1, 1},  {0, 3},  {1, 2}, {0, 4},
      {1, 3}, {0, 5}, {1, 4}, {0, 6},  {0, 7},  {0, 8},  {0, 9}, {0, 10},
      {0, 11}};
  EXPECT_EQ(log, want);
}

// --- End-to-end: digests identical across thread counts ----------------------

uint64_t DigestOf(const BipartiteGraph& graph, Algorithm algorithm,
                  unsigned threads, const std::string& checkpoint_path) {
  RunOptions options;
  options.algorithm = algorithm;
  options.threads = threads;
  options.checkpoint.path = checkpoint_path;
  options.checkpoint.every_s = 3600;  // only the final snapshot
  if (!checkpoint_path.empty()) std::remove(checkpoint_path.c_str());
  FingerprintSink sink;
  RunResult run;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, &run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_GT(sink.count(), 0u);
  if (!checkpoint_path.empty()) std::remove(checkpoint_path.c_str());
  return sink.Digest();
}

class SessionPoolDigestTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SessionPoolDigestTest, IdenticalAcrossThreadsAndDurability) {
  const Algorithm algorithm = GetParam();
  // A skewed hub graph (one dominant subtree) and a power-law graph: the
  // two load shapes the scheduler must not let affect the result set.
  const BipartiteGraph graphs[] = {
      gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21),
      gen::PowerLaw(200, 150, 1200, 0.85, 0.8, 22),
  };
  // One snapshot path per instantiation: ctest runs them concurrently.
  const std::string path = testing::TempDir() + "/pool-digest-" +
                           AlgorithmName(algorithm) + ".pmbf";
  for (const BipartiteGraph& graph : graphs) {
    RunOptions serial;
    serial.algorithm = algorithm;
    FingerprintSink reference;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), serial, &reference, nullptr).ok());
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(DigestOf(graph, algorithm, threads, ""), reference.Digest())
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_EQ(DigestOf(graph, algorithm, threads, path), reference.Digest())
          << AlgorithmName(algorithm) << " threads=" << threads
          << " checkpointing";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SessionPoolDigestTest,
                         ::testing::Values(Algorithm::kMbet,
                                           Algorithm::kMbetM,
                                           Algorithm::kMbea,
                                           Algorithm::kImbea,
                                           Algorithm::kBbk));

// --- Run control on the pool ---------------------------------------------------

TEST(SessionPoolRunControlTest, ResultBudgetIsExactUnderBatching) {
  BipartiteGraph graph = gen::HubBlock(60, 40, 60, 120, 0.4, 0.02, 23);
  RunOptions options;
  options.threads = 8;
  options.control.max_results = 50;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  // ControlledSink admits emissions one by one even when workers flush
  // batches, so the cap is exact despite per-worker buffering.
  EXPECT_EQ(run.termination, Termination::kBudget);
  EXPECT_EQ(run.results_emitted, 50u);
  EXPECT_EQ(sink.count(), 50u);
}

TEST(SessionPoolRunControlTest, CancellationDrainsTheFleet) {
  BipartiteGraph graph = gen::HubBlock(60, 40, 60, 120, 0.4, 0.02, 24);
  std::atomic<bool> cancel{true};  // pre-set: stop at the first poll
  RunOptions options;
  options.threads = 8;
  options.control.cancel = &cancel;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kCancelled);
  // Whatever was emitted before the stop is a valid prefix; the full
  // result set of this graph is far larger than any pre-stop overshoot.
  RunOptions full;
  EXPECT_LT(sink.count(), CountMaximalBicliques(graph, GraphOptions(), full));
}

}  // namespace
}  // namespace mbe
