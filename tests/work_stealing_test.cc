// Tests for the work-stealing substrate: the Chase–Lev task deque, the
// task encoding, and the end-to-end scheduler (digest-identical results
// across thread counts, volatile and durable, and run-control
// cooperation). The deque protocol tests are also the payload of the TSan
// leg in scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"
#include "parallel/work_stealing.h"

namespace mbe {
namespace {

// --- Task encoding ---------------------------------------------------------

TEST(TaskEncodingTest, RoundTrips) {
  for (const VertexId v : {VertexId{0}, VertexId{42}, VertexId{7},
                           VertexId{0xffffffffu}}) {
    const uint64_t word = EncodeTask(v);
    EXPECT_EQ(TaskVertex(word), v);
    EXPECT_TRUE(IsSubtreeTask(word));
  }
}

// The frontier snapshot format (snapshot/frontier.h) persists encoded
// task words verbatim, making the packing an on-disk contract. Pin it at
// every 32-bit seed-vertex edge value: a task encodes as the unsplit
// (v, shard 0, 1 shard) word of the version-1 layout, and no word with
// any other shard coordinates passes for a whole subtree.
TEST(TaskEncodingTest, ExhaustiveAtShardBitsAndVertexBoundaries) {
  for (const VertexId v :
       {VertexId{0}, VertexId{1}, VertexId{0x7fffffffu},
        VertexId{0x80000000u}, VertexId{0xfffffffeu}, VertexId{0xffffffffu}}) {
    const uint64_t word = EncodeTask(v);
    ASSERT_EQ(word, uint64_t{v} << 32 | uint64_t{0} << 16 | 1);
    ASSERT_EQ(TaskVertex(word), v);
    const uint64_t base = uint64_t{v} << 32;
    for (uint32_t shard = 0; shard < 0xffff; ++shard) {
      ASSERT_FALSE(IsSubtreeTask(base | uint64_t{shard} << 16 | 0xffff));
      ASSERT_EQ(TaskVertex(base | uint64_t{shard} << 16 | 0xffff), v);
    }
    ASSERT_FALSE(IsSubtreeTask(base | uint64_t{1} << 16 | 1));
    ASSERT_FALSE(IsSubtreeTask(base));
  }
  // Distinctness at the packing seam: the vertex never aliases the shard
  // bits.
  EXPECT_NE(EncodeTask(1), EncodeTask(0) | uint64_t{1} << 16);
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

// --- End-to-end: digests identical across thread counts --------------------

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

class StealingDigestTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(StealingDigestTest, IdenticalAcrossThreadsAndDurability) {
  const Algorithm algorithm = GetParam();
  // A skewed hub graph (one dominant subtree) and a power-law graph: the
  // two load shapes the scheduler must not let affect the result set.
  const BipartiteGraph graphs[] = {
      gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21),
      gen::PowerLaw(200, 150, 1200, 0.85, 0.8, 22),
  };
  // One snapshot path per instantiation: ctest runs them concurrently.
  const std::string path = testing::TempDir() + "/stealing-digest-" +
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

INSTANTIATE_TEST_SUITE_P(Algorithms, StealingDigestTest,
                         ::testing::Values(Algorithm::kMbet,
                                           Algorithm::kMbetM,
                                           Algorithm::kMbea,
                                           Algorithm::kImbea,
                                           Algorithm::kBbk));

// --- Run control under stealing -------------------------------------------

TEST(StealingRunControlTest, ResultBudgetIsExactUnderBatching) {
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

TEST(StealingRunControlTest, CancellationDrainsTheFleet) {
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
