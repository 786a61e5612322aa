// Tests of the run-control subsystem: cooperative cancellation, deadlines,
// result/node budgets, progress reporting, termination reasons across every
// algorithm (serial and parallel), and RunOptions::Validate rejections.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "api/mbe.h"
#include "core/run_control.h"
#include "core/verify.h"
#include "gen/generators.h"

namespace mbe {
namespace {

// Dense enough that every algorithm has far more than a handful of maximal
// bicliques, small enough that full enumeration (the reference) is fast.
BipartiteGraph MediumGraph() { return gen::ErdosRenyi(24, 24, 0.4, 7); }

// 2^40 - 2 maximal bicliques: no host finishes a full enumeration, so a
// run on it is still going when a deadline, budget or cancel arrives —
// exactly the situation run control exists for.
BipartiteGraph WorstCaseGraph() { return gen::Crown(40); }

std::vector<Biclique> ReferenceSet(const BipartiteGraph& graph) {
  CollectSink sink;
  EXPECT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  return sink.TakeSorted();
}

TEST(TerminationTest, NamesAreStable) {
  EXPECT_STREQ(TerminationName(Termination::kComplete), "complete");
  EXPECT_STREQ(TerminationName(Termination::kCancelled), "cancelled");
  EXPECT_STREQ(TerminationName(Termination::kDeadline), "deadline");
  EXPECT_STREQ(TerminationName(Termination::kBudget), "budget");
}

TEST(RunControlTest, InertControlIsInactive) {
  RunControl control;
  EXPECT_FALSE(control.active());
  control.max_results = 10;
  EXPECT_TRUE(control.active());
}

TEST(RunControlTest, UncontrolledRunReportsComplete) {
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(MediumGraph(), GraphOptions(), RunOptions(), &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_TRUE(run.complete());
  EXPECT_EQ(run.results_emitted, sink.count());
}

TEST(RunControlTest, ResultBudgetEmitsExactPrefixOfMaximalBicliques) {
  const BipartiteGraph graph = MediumGraph();
  const std::vector<Biclique> reference = ReferenceSet(graph);
  ASSERT_GE(reference.size(), 20u);

  RunOptions options;
  options.control.max_results = 10;
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kBudget);
  EXPECT_EQ(run.results_emitted, 10u);

  // Every emitted biclique is a genuine maximal biclique of the input:
  // interruption yields a valid prefix, not partial garbage.
  const std::vector<Biclique> prefix = sink.TakeSorted();
  ASSERT_EQ(prefix.size(), 10u);
  for (const Biclique& b : prefix) {
    EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
    EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(), b));
  }
}

TEST(RunControlTest, ResultBudgetReportedForEveryAlgorithm) {
  const BipartiteGraph graph = MediumGraph();
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kBbk}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    for (auto* enumerate : {&Enumerate, &EnumerateSubtreeTasks}) {
      SCOPED_TRACE(enumerate == &Enumerate ? "whole graph" : "subtree tasks");
      RunOptions options;
      options.algorithm = algorithm;
      options.control.max_results = 5;
      CollectSink sink;
      RunResult run;
      ASSERT_TRUE(enumerate(graph, GraphOptions(), options, &sink, &run).ok());
      EXPECT_EQ(run.termination, Termination::kBudget);
      EXPECT_EQ(sink.results().size(), 5u);
      for (const Biclique& b : sink.results()) {
        EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
      }
    }
  }
}

TEST(RunControlTest, ResultBudgetStopsAllWorkers) {
  const BipartiteGraph graph = MediumGraph();
  RunOptions options;
  options.threads = 4;
  options.control.max_results = 8;
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kBudget);
  // AdmitEmit makes the cap exact even under concurrent emission.
  EXPECT_EQ(run.results_emitted, 8u);
  const std::vector<Biclique> prefix = sink.TakeSorted();
  ASSERT_EQ(prefix.size(), 8u);
  for (const Biclique& b : prefix) {
    EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
  }
}

TEST(RunControlTest, NodeBudgetTripsOnLargeRuns) {
  RunOptions options;
  options.control.max_nodes_expanded = 100;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kBudget);
  // Polling-granular: overshoot is bounded by the stride per worker.
  EXPECT_LT(run.stats.nodes_expanded, 100 + 2 * RunPoller::kStride);
}

TEST(RunControlTest, DeadlineStopsWorstCaseRunQuickly) {
  RunOptions options;
  options.control.deadline_seconds = 0.2;
  CountSink sink;
  RunResult run;
  util::WallTimer timer;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  const double elapsed = timer.Seconds();
  EXPECT_EQ(run.termination, Termination::kDeadline);
  // ~1.2x headroom in the acceptance criterion; be generous for CI noise
  // but still catch a run that ignores the deadline.
  EXPECT_LT(elapsed, 2.0);
  EXPECT_GT(sink.count(), 0u);  // the prefix emitted so far is returned
}

TEST(RunControlTest, DeadlineStopsTheWholeFleet) {
  RunOptions options;
  options.threads = 4;
  options.control.deadline_seconds = 0.2;
  CountSink sink;
  RunResult run;
  util::WallTimer timer;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  const double elapsed = timer.Seconds();
  EXPECT_EQ(run.termination, Termination::kDeadline);
  EXPECT_LT(elapsed, 2.0);
}

TEST(RunControlTest, DeadlineReportedForEveryParallelAlgorithm) {
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kImbea,
        Algorithm::kBbk}) {
    RunOptions options;
    options.algorithm = algorithm;
    options.threads = 4;
    options.control.deadline_seconds = 0.1;
    CountSink sink;
    RunResult run;
    ASSERT_TRUE(
        Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok())
        << AlgorithmName(algorithm);
    EXPECT_EQ(run.termination, Termination::kDeadline)
        << AlgorithmName(algorithm);
  }
}

TEST(RunControlTest, PreSetCancellationTokenStopsImmediately) {
  std::atomic<bool> cancel{true};
  RunOptions options;
  options.control.cancel = &cancel;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kCancelled);
  EXPECT_EQ(sink.count(), 0u);
}

// Forwards to `inner` and raises `cancel` once the first biclique has been
// delivered, so the cancel lands mid-run without a wall-clock wait.
CallbackSink CancelOnFirstEmit(ResultSink* inner, std::atomic<bool>* cancel) {
  return CallbackSink([inner, cancel](std::span<const VertexId> left,
                                      std::span<const VertexId> right) {
    inner->Emit(left, right);
    cancel->store(true);
  });
}

TEST(RunControlTest, CancellationMidRunYieldsValidPrefix) {
  const BipartiteGraph graph = WorstCaseGraph();
  std::atomic<bool> cancel{false};
  RunOptions options;
  options.control.cancel = &cancel;
  options.threads = 4;
  CountSink sink;
  CallbackSink latch = CancelOnFirstEmit(&sink, &cancel);
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &latch, &run).ok());
  EXPECT_EQ(run.termination, Termination::kCancelled);
  EXPECT_GT(sink.count(), 0u);
}

TEST(RunControlTest, CancellationMidRunStopsEverySerialEngine) {
  // The single-thread path runs each engine inline (no session pool);
  // every one of them must honour a cancel that arrives mid-run.
  const BipartiteGraph graph = WorstCaseGraph();
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kBbk}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    std::atomic<bool> cancel{false};
    RunOptions options;
    options.algorithm = algorithm;
    options.control.cancel = &cancel;
    CollectSink sink;
    CallbackSink latch = CancelOnFirstEmit(&sink, &cancel);
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &latch, &run).ok());
    EXPECT_EQ(run.termination, Termination::kCancelled);
    ASSERT_GT(sink.results().size(), 0u);
    for (const Biclique& b : sink.results()) {
      EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
    }
  }
}

TEST(RunControlTest, ProgressCallbackFiresWithLiveCounters) {
  std::atomic<uint64_t> fires{0};
  std::atomic<uint64_t> last_nodes{0};
  RunOptions options;
  options.control.progress_every_s = 0;  // fire on every checkpoint
  options.control.progress = [&](const RunProgress& p) {
    fires.fetch_add(1);
    last_nodes.store(p.stats.nodes_expanded);
    EXPECT_GE(p.elapsed_seconds, 0.0);
  };
  options.control.max_nodes_expanded = 2000;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_GT(fires.load(), 0u);
  EXPECT_GT(last_nodes.load(), 0u);
}

TEST(RunControlTest, AnytimeMaximumBicliqueReturnsIncumbentAtDeadline) {
  const BipartiteGraph graph = WorstCaseGraph();
  RunOptions options;
  options.control.deadline_seconds = 0.2;
  Biclique best;
  RunResult run;
  util::WallTimer timer;
  ASSERT_TRUE(
      FindMaximumBiclique(graph, GraphOptions(), options, &best, &run).ok());
  EXPECT_LT(timer.Seconds(), 2.0);
  EXPECT_EQ(run.termination, Termination::kDeadline);
  // The incumbent is a real (maximal) biclique — a usable lower bound.
  ASSERT_FALSE(best.left.empty());
  EXPECT_TRUE(IsBiclique(graph, best)) << ToString(best);
}

TEST(RunControlTest, MaximumBicliqueCompleteRunIsOptimal) {
  const BipartiteGraph graph = MediumGraph();
  Biclique best;
  RunResult run;
  ASSERT_TRUE(
      FindMaximumBiclique(graph, GraphOptions(), RunOptions(), &best, &run)
          .ok());
  EXPECT_TRUE(run.complete());
  size_t most_edges = 0;
  for (const Biclique& b : ReferenceSet(graph)) {
    most_edges = std::max(most_edges, b.num_edges());
  }
  EXPECT_EQ(best.num_edges(), most_edges);
}

// --- Status facade -----------------------------------------------------------

TEST(StatusFacadeTest, ParseAlgorithmStatusOverload) {
  Algorithm algorithm = Algorithm::kMbea;
  EXPECT_TRUE(ParseAlgorithm("mbet", &algorithm).ok());
  EXPECT_EQ(algorithm, Algorithm::kMbet);
  const util::Status bad = ParseAlgorithm("quantum", &algorithm);
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("quantum"), std::string::npos);
  EXPECT_EQ(algorithm, Algorithm::kMbet);  // untouched on error
}

TEST(StatusFacadeTest, NullSinkIsAnErrorNotACrash) {
  RunResult run;
  const util::Status status =
      Enumerate(MediumGraph(), GraphOptions(), RunOptions(), nullptr, &run);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(StatusFacadeTest, NullResultPointerIsAllowed) {
  CountSink sink;
  EXPECT_TRUE(Enumerate(MediumGraph(), GraphOptions(), RunOptions(), &sink,
                        nullptr)
                  .ok());
  EXPECT_GT(sink.count(), 0u);
}

TEST(StatusFacadeTest, InvalidOptionsAreAnErrorNotACrash) {
  RunOptions options;
  options.algorithm = Algorithm::kMineLmbc;
  options.threads = 4;
  CountSink sink;
  RunResult run;
  const util::Status status =
      Enumerate(MediumGraph(), GraphOptions(), options, &sink, &run);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(sink.count(), 0u);  // rejected before any work
}

TEST(ValidateTest, DefaultOptionsAreValid) {
  EXPECT_TRUE(RunOptions().Validate().ok());
}

TEST(ValidateTest, RejectsEachMalformedField) {
  {
    RunOptions o;
    o.threads = 0;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    o.algorithm = Algorithm::kMineLmbc;
    o.threads = 2;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    o.mbet.min_left = 0;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    o.mbet.min_right = 0;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    o.mbet.trie_min_groups = 0;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    uint64_t watermark = 0;
    o.mbet.best_edges = &watermark;
    o.threads = 2;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;
    o.control.deadline_seconds = -1;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ValidateTest, ParallelSupportMatrix) {
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMbea,
        Algorithm::kImbea, Algorithm::kBbk}) {
    RunOptions o;
    o.algorithm = algorithm;
    o.threads = 8;
    EXPECT_TRUE(o.Validate().ok()) << AlgorithmName(algorithm);
  }
  for (Algorithm algorithm : {Algorithm::kMineLmbc}) {
    RunOptions o;
    o.algorithm = algorithm;
    o.threads = 8;
    EXPECT_FALSE(o.Validate().ok()) << AlgorithmName(algorithm);
  }
}

// --- Truncated runs stay consistent with the reference ----------------------

TEST(RunControlTest, TruncatedPrefixIsSubsetOfFullRun) {
  const BipartiteGraph graph = MediumGraph();
  const std::vector<Biclique> reference = ReferenceSet(graph);
  for (unsigned threads : {1u, 4u}) {
    RunOptions options;
    options.threads = threads;
    options.control.max_results = reference.size() / 2;
    CollectSink sink;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
    EXPECT_EQ(run.termination, Termination::kBudget);
    for (const Biclique& b : sink.TakeSorted()) {
      EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(), b))
          << "threads=" << threads << ": " << ToString(b);
    }
  }
}

}  // namespace
}  // namespace mbe
