// Tests for the work-stealing substrate: the Chase–Lev task deque, the
// task encoding, and the end-to-end kStealing scheduling discipline
// (digest-identical results across thread counts and schedulings, subtree
// splitting, and run-control cooperation). The deque protocol tests are
// also the payload of the TSan leg in scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"
#include "parallel/work_stealing.h"

namespace mbe {
namespace {

// --- Task encoding ---------------------------------------------------------

TEST(TaskEncodingTest, RoundTrips) {
  for (const StealTask task :
       {StealTask{0, 0, 1}, StealTask{42, 0, 1}, StealTask{7, 3, 8},
        StealTask{0xffffffffu, 0xfffeu, 0xffffu}}) {
    const StealTask back = DecodeTask(EncodeTask(task));
    EXPECT_EQ(back.v, task.v);
    EXPECT_EQ(back.shard, task.shard);
    EXPECT_EQ(back.num_shards, task.num_shards);
  }
}

// The frontier snapshot format (snapshot/frontier.h) persists encoded
// task words verbatim, making the packing an on-disk contract. Pin its
// boundaries exhaustively: every shard index at the kMaxTaskShards split
// and every 32-bit seed-vertex edge value must survive the round trip.
TEST(TaskEncodingTest, ExhaustiveAtMaxShardsAndVertexBoundaries) {
  for (const VertexId v :
       {VertexId{0}, VertexId{1}, VertexId{0x7fffffffu},
        VertexId{0x80000000u}, VertexId{0xfffffffeu}, VertexId{0xffffffffu}}) {
    for (uint32_t shard = 0; shard < kMaxTaskShards; ++shard) {
      const uint64_t word =
          EncodeTask({.v = v, .shard = shard, .num_shards = kMaxTaskShards});
      const StealTask back = DecodeTask(word);
      ASSERT_EQ(back.v, v);
      ASSERT_EQ(back.shard, shard);
      ASSERT_EQ(back.num_shards, kMaxTaskShards);
    }
  }
  // Distinctness at the packing seams: neighboring fields never alias.
  EXPECT_NE(EncodeTask({.v = 1, .shard = 0, .num_shards = 2}),
            EncodeTask({.v = 0, .shard = 1, .num_shards = 2}));
  EXPECT_NE(EncodeTask({.v = 0, .shard = 1, .num_shards = 2}),
            EncodeTask({.v = 0, .shard = 0, .num_shards = 2}));
}

// --- Deque, single-threaded semantics -------------------------------------

TEST(TaskDequeTest, OwnerPopsLifo) {
  TaskDeque deque;
  for (uint64_t i = 1; i <= 3; ++i) deque.Push(i);
  uint64_t task = 0;
  ASSERT_TRUE(deque.Pop(&task));
  EXPECT_EQ(task, 3u);
  ASSERT_TRUE(deque.Pop(&task));
  EXPECT_EQ(task, 2u);
  ASSERT_TRUE(deque.Pop(&task));
  EXPECT_EQ(task, 1u);
  EXPECT_FALSE(deque.Pop(&task));
}

TEST(TaskDequeTest, ThiefStealsFifo) {
  TaskDeque deque;
  for (uint64_t i = 1; i <= 3; ++i) deque.Push(i);
  uint64_t task = 0;
  ASSERT_TRUE(deque.Steal(&task));
  EXPECT_EQ(task, 1u);
  ASSERT_TRUE(deque.Steal(&task));
  EXPECT_EQ(task, 2u);
  ASSERT_TRUE(deque.Steal(&task));
  EXPECT_EQ(task, 3u);
  EXPECT_FALSE(deque.Steal(&task));
}

TEST(TaskDequeTest, PopAndStealMeetInTheMiddle) {
  TaskDeque deque;
  for (uint64_t i = 1; i <= 10; ++i) deque.Push(i);
  uint64_t task = 0;
  std::vector<bool> seen(11, false);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(deque.Pop(&task));
    seen[task] = true;
    ASSERT_TRUE(deque.Steal(&task));
    seen[task] = true;
  }
  EXPECT_FALSE(deque.Pop(&task));
  EXPECT_FALSE(deque.Steal(&task));
  for (uint64_t i = 1; i <= 10; ++i) EXPECT_TRUE(seen[i]) << i;
}

TEST(TaskDequeTest, GrowthPreservesAllTasks) {
  TaskDeque deque(/*capacity_hint=*/4);  // forces several ring growths
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 1; i <= kN; ++i) deque.Push(i);
  EXPECT_GE(deque.SizeEstimate(), kN - 1);
  std::vector<bool> seen(kN + 1, false);
  uint64_t task = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(deque.Pop(&task));
    ASSERT_FALSE(seen[task]) << "duplicate task " << task;
    seen[task] = true;
  }
  EXPECT_FALSE(deque.Pop(&task));
}

TEST(TaskDequeTest, InterleavedPushPopAcrossGrowth) {
  TaskDeque deque(4);
  uint64_t next = 1;
  uint64_t retired = 0;
  uint64_t task = 0;
  // Sawtooth load keeps top far from zero while the ring grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 37; ++i) deque.Push(next++);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(deque.Steal(&task));
      ++retired;
    }
  }
  while (deque.Pop(&task)) ++retired;
  EXPECT_EQ(retired, next - 1);
}

// --- Deque, concurrent stress (the TSan payload) ---------------------------

TEST(TaskDequeStressTest, OwnerAndThievesRetireEveryTaskOnce) {
  constexpr uint64_t kTasks = 20000;
  constexpr unsigned kThieves = 3;
  TaskDeque deque(8);
  std::vector<std::atomic<uint32_t>> hits(kTasks);
  std::atomic<uint64_t> retired{0};
  std::atomic<bool> done_pushing{false};

  auto retire = [&](uint64_t task) {
    hits[task].fetch_add(1, std::memory_order_relaxed);
    retired.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (unsigned t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&]() {
      uint64_t task = 0;
      while (retired.load(std::memory_order_relaxed) < kTasks) {
        if (deque.Steal(&task)) {
          retire(task);
        } else if (done_pushing.load(std::memory_order_relaxed)) {
          // Owner may still hold tasks; keep contending until all retire.
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: push everything (interleaving pops) then drain.
  uint64_t task = 0;
  for (uint64_t i = 0; i < kTasks; ++i) {
    deque.Push(i);
    if (i % 7 == 0 && deque.Pop(&task)) retire(task);
  }
  done_pushing.store(true, std::memory_order_relaxed);
  while (deque.Pop(&task)) retire(task);
  for (std::thread& t : thieves) t.join();

  EXPECT_EQ(retired.load(), kTasks);
  for (uint64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "task " << i;
  }
}

// --- End-to-end: digests identical across schedulings ----------------------

uint64_t DigestOf(const BipartiteGraph& graph, Algorithm algorithm,
                  unsigned threads, Scheduling scheduling) {
  RunOptions options;
  options.algorithm = algorithm;
  options.threads = threads;
  options.scheduling = scheduling;
  options.max_split = 8;
  FingerprintSink sink;
  RunResult run;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, &run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_GT(sink.count(), 0u);
  return sink.Digest();
}

class SchedulingDigestTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SchedulingDigestTest, IdenticalAcrossThreadsAndSchedulings) {
  const Algorithm algorithm = GetParam();
  // A skewed hub graph (one dominant subtree) and a power-law graph: the
  // two load shapes the scheduler must not let affect the result set.
  const BipartiteGraph graphs[] = {
      gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21),
      gen::PowerLaw(200, 150, 1200, 0.85, 0.8, 22),
  };
  for (const BipartiteGraph& graph : graphs) {
    const uint64_t reference =
        DigestOf(graph, algorithm, 1, Scheduling::kDynamic);
    for (unsigned threads : {1u, 2u, 8u}) {
      for (Scheduling scheduling : {Scheduling::kDynamic, Scheduling::kStatic,
                                    Scheduling::kStealing}) {
        EXPECT_EQ(DigestOf(graph, algorithm, threads, scheduling), reference)
            << AlgorithmName(algorithm) << " threads=" << threads << " "
            << SchedulingName(scheduling);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SchedulingDigestTest,
                         ::testing::Values(Algorithm::kMbet,
                                           Algorithm::kImbea,
                                           Algorithm::kBbk));

// --- Run control under stealing -------------------------------------------

TEST(StealingRunControlTest, ResultBudgetIsExactUnderBatching) {
  BipartiteGraph graph = gen::HubBlock(60, 40, 60, 120, 0.4, 0.02, 23);
  RunOptions options;
  options.threads = 8;
  options.scheduling = Scheduling::kStealing;
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

TEST(StealingRunControlTest, CancellationDrainsTheFleet) {
  BipartiteGraph graph = gen::HubBlock(60, 40, 60, 120, 0.4, 0.02, 24);
  std::atomic<bool> cancel{true};  // pre-set: stop at the first poll
  RunOptions options;
  options.threads = 8;
  options.scheduling = Scheduling::kStealing;
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
