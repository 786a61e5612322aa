// Engine-level tests for BBK (engines/bbk.h): oracle-checked output,
// digest identity with MBET across graph families, L' bitmaps on every
// node and the sorted-list fallback under memory pressure (serial and
// through the session pool), and the facade's serial/parallel paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "api/mbe.h"
#include "core/verify.h"
#include "engines/bbk.h"
#include "gen/generators.h"
#include "util/memory.h"

namespace mbe {
namespace {

// The running-example graph of the MBE literature (5 x 4).
BipartiteGraph LiteratureGraph() {
  return BipartiteGraph::FromEdges(
      5, 4,
      {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 1},
       {3, 1}, {3, 2}, {3, 3}, {4, 3}});
}

std::vector<Biclique> MbetReference(const BipartiteGraph& graph) {
  CollectSink sink;
  EXPECT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  return sink.TakeSorted();
}

TEST(BbkEngineTest, LiteratureGraphMatchesOracle) {
  const BipartiteGraph graph = LiteratureGraph();
  BbkEnumerator engine(graph);
  CollectSink sink;
  engine.EnumerateAll(&sink);
  const std::vector<Biclique> got = sink.TakeSorted();
  EXPECT_EQ(got, MbetReference(graph));
  for (const Biclique& b : got) {
    EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
  }
  EXPECT_EQ(engine.stats().maximal, got.size());
}

TEST(BbkEngineTest, OutputIdenticalToMbetAcrossFamilies) {
  const BipartiteGraph graphs[] = {
      gen::ErdosRenyi(40, 30, 0.2, 5),
      gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70),
      gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21),
  };
  for (const BipartiteGraph& graph : graphs) {
    FingerprintSink ref;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), RunOptions(), &ref, nullptr).ok());

    BbkEnumerator engine(graph);
    FingerprintSink got;
    engine.EnumerateAll(&got);
    EXPECT_EQ(got.Digest(), ref.Digest());
    EXPECT_EQ(got.count(), ref.count());
    EXPECT_GT(got.count(), 0u);
  }
}

// A budget whose cap is far above what one test run charges, pre-charged
// past its soft fraction: every consumer sees pressure, no charge is
// declined. The pre-charge is returned on destruction.
class PressuredBudget {
 public:
  static constexpr uint64_t kCap = uint64_t{1} << 30;
  static constexpr uint64_t kPreCharge = kCap / 10 * 8;

  PressuredBudget() {
    budget_.BeginRun(kCap);
    charged_ = budget_.TryCharge(kPreCharge);
  }
  ~PressuredBudget() {
    if (charged_) budget_.Release(kPreCharge);
  }
  PressuredBudget(const PressuredBudget&) = delete;
  PressuredBudget& operator=(const PressuredBudget&) = delete;

  bool pressured() const { return charged_ && budget_.UnderPressure(); }
  util::MemoryBudget* get() { return &budget_; }

 private:
  util::MemoryBudget budget_;
  bool charged_ = false;
};

TEST(BbkEngineTest, MemoryPressureKeepsListsWithSameDigest) {
  // Under pressure L' stays on its sorted list (a degradation, no
  // bitmap); the output must be the unpressured run's.
  const BipartiteGraph graph = gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70);
  BbkEnumerator free_run(graph);
  FingerprintSink a;
  free_run.EnumerateAll(&a);
  EXPECT_GT(free_run.stats().bitmap_conversions, 0u);

  PressuredBudget budget;
  ASSERT_TRUE(budget.pressured());
  FingerprintSink b;
  EnumStats pressured_stats;
  {
    util::ScopedBudgetBinding binding(budget.get());
    BbkEnumerator pressured(graph);
    pressured.EnumerateAll(&b);
    pressured_stats = pressured.stats();
  }
  EXPECT_EQ(b.Digest(), a.Digest());
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(pressured_stats.bitmap_conversions, 0u);
  EXPECT_EQ(pressured_stats.bitmap_kernel_calls, 0u);
  EXPECT_GT(budget.get()->degradations(), 0u);
  EXPECT_FALSE(budget.get()->exhausted());
}

TEST(BbkEngineTest, EveryExpandedNodeCarriesABitmap) {
  // Without pressure BBK never leaves L on a list alone: each expansion
  // is entered with the root's or the parent's L' bitmap, so there is at
  // least one conversion per expanded node, and every candidate/Q probe
  // is a list x bitmap kernel.
  const BipartiteGraph graph = gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21);
  BbkEnumerator engine(graph);
  CountSink sink;
  engine.EnumerateAll(&sink);
  const EnumStats& s = engine.stats();
  ASSERT_GT(s.nodes_expanded, 0u);
  EXPECT_GE(s.bitmap_conversions, s.nodes_expanded);
  EXPECT_GT(s.bitmap_kernel_calls, 0u);
}

TEST(BbkEngineTest, PressuredParallelRunMatchesSerial) {
  // The pool binds the session's budget on every worker thread, so
  // pressure reaches each worker's engine: no worker builds a bitmap, and
  // the merged output is the serial run's.
  const BipartiteGraph graph = gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70);
  BbkEnumerator serial(graph);
  FingerprintSink ref;
  serial.EnumerateAll(&ref);

  auto engine = Engine::Build(graph, GraphOptions());
  ASSERT_TRUE(engine.ok());
  RunOptions options;
  options.algorithm = Algorithm::kBbk;
  options.threads = 4;
  options.max_memory_bytes = PressuredBudget::kCap;
  Session session(engine.value(), options);
  // Charged before the run; the run's cap turns it into pressure.
  ASSERT_TRUE(session.budget().TryCharge(PressuredBudget::kPreCharge));
  FingerprintSink got;
  RunResult run;
  ASSERT_TRUE(session.Run(&got, &run).ok());
  session.budget().Release(PressuredBudget::kPreCharge);
  EXPECT_TRUE(run.complete());
  EXPECT_EQ(got.Digest(), ref.Digest());
  EXPECT_EQ(got.count(), ref.count());
  EXPECT_EQ(run.stats.maximal, ref.count());
  EXPECT_EQ(run.stats.bitmap_conversions, 0u);
  EXPECT_GT(run.stats.degradations, 0u);
}

TEST(BbkEngineTest, FacadeBbkIgnoresBitmapDensity) {
  // `mbet.bitmap_density` is an ignored field, kept for callers that still
  // set it: any value leaves BBK's per-node bitmaps, and its output,
  // unchanged.
  const BipartiteGraph graph = gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70);
  RunOptions o;
  o.algorithm = Algorithm::kBbk;
  FingerprintSink def;
  RunResult def_run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &def, &def_run).ok());

  o.mbet.bitmap_density = 2.0;
  FingerprintSink lists;
  RunResult lists_run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &lists, &lists_run).ok());
  EXPECT_EQ(lists.Digest(), def.Digest());
  EXPECT_GT(lists_run.stats.bitmap_conversions, 0u);
  EXPECT_EQ(lists_run.stats.bitmap_conversions,
            def_run.stats.bitmap_conversions);
}

TEST(BbkEngineTest, EmptyAndDegenerateGraphs) {
  const BipartiteGraph none;
  BbkEnumerator empty(none);
  CountSink s0;
  empty.EnumerateAll(&s0);
  EXPECT_EQ(s0.count(), 0u);

  // A single edge: one maximal biclique.
  const BipartiteGraph one = BipartiteGraph::FromEdges(1, 1, {{0, 0}});
  BbkEnumerator engine(one);
  CollectSink s1;
  engine.EnumerateAll(&s1);
  const std::vector<Biclique> got = s1.TakeSorted();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].left, (std::vector<VertexId>{0}));
  EXPECT_EQ(got[0].right, (std::vector<VertexId>{0}));
}

TEST(BbkEngineTest, StatsCountersAreConsistent) {
  const BipartiteGraph graph = gen::PowerLaw(120, 90, 600, 0.8, 0.8, 71);
  BbkEnumerator engine(graph);
  CountSink sink;
  engine.EnumerateAll(&sink);
  const EnumStats& s = engine.stats();
  EXPECT_EQ(s.maximal, sink.count());
  EXPECT_GT(s.nodes_expanded, 0u);
  // The whole point of the engine: candidates classified without per-node
  // re-sorting still absorb (k == |L'|) and drop (k == 0) like iMBEA.
  EXPECT_GT(s.candidates_dropped, 0u);
  // ResetStats zeroes the counters for reuse.
  engine.ResetStats();
  EXPECT_EQ(engine.stats().maximal, 0u);
  EXPECT_EQ(engine.stats().nodes_expanded, 0u);
}

TEST(BbkEngineTest, FacadeParsesAndRunsParallel) {
  // End-to-end through the public facade: "bbk" parses, validates with
  // threads > 1, and the parallel run is digest-identical to serial.
  Algorithm algorithm = Algorithm::kMbet;
  ASSERT_TRUE(ParseAlgorithm("bbk", &algorithm).ok());
  EXPECT_EQ(algorithm, Algorithm::kBbk);
  EXPECT_STREQ(AlgorithmName(Algorithm::kBbk), "BBK");

  const BipartiteGraph graph = gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70);
  FingerprintSink serial;
  RunOptions o;
  o.algorithm = Algorithm::kBbk;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &serial, nullptr).ok());

  o.threads = 4;
  FingerprintSink parallel;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &parallel, &run).ok());
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_EQ(parallel.Digest(), serial.Digest());
  EXPECT_EQ(parallel.count(), serial.count());
}

}  // namespace
}  // namespace mbe
