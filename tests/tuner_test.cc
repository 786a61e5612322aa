// Tests for the workload-adaptive auto-tuner (core/tuner.h): profile
// correctness and determinism, pinned decision-table rows (synthetic
// profiles and gen:: graph families), and the end-to-end contract that an
// auto-tuned run is output-identical to a default run while recording its
// decision in the stats.

#include <gtest/gtest.h>

#include "api/mbe.h"
#include "core/tuner.h"
#include "gen/generators.h"

namespace mbe {
namespace {

TEST(TunerProfileTest, MatchesGraphShape) {
  const BipartiteGraph graph = gen::ErdosRenyi(100, 80, 0.1, 7);
  const GraphProfile p = ProfileGraph(graph, 1);
  EXPECT_EQ(p.num_left, 100u);
  EXPECT_EQ(p.num_right, 80u);
  EXPECT_EQ(p.num_edges, graph.num_edges());
  EXPECT_NEAR(p.density,
              static_cast<double>(graph.num_edges()) / (100.0 * 80.0),
              1e-12);
  EXPECT_NEAR(p.avg_right_degree,
              static_cast<double>(graph.num_edges()) / 80.0, 1e-12);
  EXPECT_GE(p.degree_skew, 1.0);
  EXPECT_GT(p.two_hop_ratio, 0.0);
}

TEST(TunerProfileTest, EmptyGraphIsAllZero) {
  const GraphProfile p = ProfileGraph(BipartiteGraph(), 1);
  EXPECT_EQ(p.num_edges, 0u);
  EXPECT_EQ(p.density, 0.0);
  EXPECT_EQ(p.two_hop_ratio, 0.0);
}

TEST(TunerProfileTest, DeterministicInSeed) {
  // The wedge sample only kicks in past 64 right vertices; use a graph
  // large enough that the sampled paths actually run.
  const BipartiteGraph graph = gen::ErdosRenyi(300, 200, 0.05, 11);
  const GraphProfile a = ProfileGraph(graph, 42);
  const GraphProfile b = ProfileGraph(graph, 42);
  EXPECT_EQ(a.two_hop_ratio, b.two_hop_ratio);
  EXPECT_EQ(a.degree_skew, b.degree_skew);
}

TEST(TunerDecisionTest, TableRowsPinned) {
  GraphProfile p;
  p.num_left = 1000;
  p.num_right = 1000;

  // Row 1: too little total work -> MBET.
  p.num_edges = 100;
  p.density = 0.5;  // even a dense tiny graph stays "tiny"
  {
    const TunerDecision d = Tune(p);
    EXPECT_EQ(d.rule, TunerRule::kTiny);
    EXPECT_EQ(d.engine, TunerEngine::kMbet);
  }

  // Row 2a: dense by edge density.
  p.num_edges = 10000;
  p.density = 0.2;
  {
    const TunerDecision d = Tune(p);
    EXPECT_EQ(d.rule, TunerRule::kDense);
    EXPECT_EQ(d.engine, TunerEngine::kMbet);
  }

  // Row 2b: sparse edges but a crowded two-hop neighborhood.
  p.density = 0.01;
  p.two_hop_ratio = 5.0;
  EXPECT_EQ(Tune(p).rule, TunerRule::kDense);

  // Row 3: hub-dominated degree distribution -> BBK.
  p.two_hop_ratio = 1.0;
  p.degree_skew = 20.0;
  {
    const TunerDecision d = Tune(p);
    EXPECT_EQ(d.rule, TunerRule::kSkewed);
    EXPECT_EQ(d.engine, TunerEngine::kBbk);
  }

  // Row 4: sparse, roughly uniform -> BBK.
  p.degree_skew = 2.0;
  {
    const TunerDecision d = Tune(p);
    EXPECT_EQ(d.rule, TunerRule::kSparse);
    EXPECT_EQ(d.engine, TunerEngine::kBbk);
  }
}

TEST(TunerDecisionTest, SyntheticFamiliesHitExpectedRows) {
  // Dense Erdos-Renyi: ~1080 edges at density 0.3.
  EXPECT_EQ(Tune(ProfileGraph(gen::ErdosRenyi(60, 60, 0.3, 3), 1)).rule,
            TunerRule::kDense);
  // A handful of edges.
  EXPECT_EQ(Tune(ProfileGraph(gen::ErdosRenyi(8, 8, 0.2, 3), 1)).rule,
            TunerRule::kTiny);
}

TEST(TunerDecisionTest, RuleNamesStable) {
  EXPECT_STREQ(TunerRuleName(TunerRule::kNone), "none");
  EXPECT_STREQ(TunerRuleName(TunerRule::kTiny), "tiny");
  EXPECT_STREQ(TunerRuleName(TunerRule::kDense), "dense");
  EXPECT_STREQ(TunerRuleName(TunerRule::kSkewed), "skewed");
  EXPECT_STREQ(TunerRuleName(TunerRule::kSparse), "sparse");
}

TEST(TunerDecisionTest, EngineNamesStable) {
  EXPECT_STREQ(TunerEngineName(TunerEngine::kNone), "none");
  EXPECT_STREQ(TunerEngineName(TunerEngine::kMbet), "MBET");
  EXPECT_STREQ(TunerEngineName(TunerEngine::kBbk), "BBK");
}

TEST(TunerEndToEndTest, AutoTunedRunIsOutputIdenticalAndRecorded) {
  const BipartiteGraph graph = gen::ErdosRenyi(50, 40, 0.15, 9);

  FingerprintSink ref;
  RunOptions base;
  RunResult base_run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), base, &ref, &base_run).ok());
  EXPECT_EQ(base_run.stats.auto_tuned, 0u);

  FingerprintSink tuned;
  RunOptions o;
  o.auto_tune = true;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &tuned, &run).ok());
  EXPECT_EQ(run.stats.auto_tuned, 1u);
  EXPECT_NE(run.stats.tuner_rule, static_cast<uint64_t>(TunerRule::kNone));
  // This fixture is dense (density 0.15 >= 0.08), so the engine pick is
  // MBET, and the honored pick is recorded in the stats.
  EXPECT_EQ(run.stats.tuned_algorithm,
            static_cast<uint64_t>(TunerEngine::kMbet));

  EXPECT_EQ(tuned.Digest(), ref.Digest());
  EXPECT_EQ(tuned.count(), ref.count());
}

TEST(TunerEndToEndTest, EngineRecommendationDispatchesBbk) {
  // Sparse power-law shape: below every dense threshold, so the decision
  // table recommends the pivot-free BBK engine. The tuned run must honor
  // it (recorded in stats) and stay output-identical to the MBET default,
  // serial and parallel.
  const BipartiteGraph graph = gen::PowerLaw(200, 150, 1200, 0.85, 0.8, 22);
  const TunerDecision d = Tune(ProfileGraph(graph, /*seed=*/1));
  ASSERT_EQ(d.engine, TunerEngine::kBbk) << TunerRuleName(d.rule);

  FingerprintSink ref;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &ref, nullptr).ok());

  for (unsigned threads : {1u, 4u}) {
    FingerprintSink tuned;
    RunOptions o;
    o.auto_tune = true;
    o.threads = threads;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &tuned, &run).ok());
    EXPECT_EQ(run.stats.tuned_algorithm,
              static_cast<uint64_t>(TunerEngine::kBbk))
        << "threads=" << threads;
    EXPECT_EQ(tuned.Digest(), ref.Digest()) << "threads=" << threads;
    EXPECT_EQ(tuned.count(), ref.count());
  }
}

TEST(TunerEndToEndTest, EngineRecommendationYieldsToPinnedAlgorithm) {
  // When the query pins a non-interchangeable engine, auto-tune applies
  // the knob rows but must not override the algorithm; the stats record
  // no engine pick (0 = pinned/untuned).
  const BipartiteGraph graph = gen::PowerLaw(200, 150, 1200, 0.85, 0.8, 22);
  FingerprintSink ref;
  RunOptions pinned;
  pinned.algorithm = Algorithm::kImbea;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), pinned, &ref, nullptr).ok());

  FingerprintSink tuned;
  RunOptions o;
  o.algorithm = Algorithm::kImbea;
  o.auto_tune = true;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &tuned, &run).ok());
  EXPECT_EQ(run.stats.auto_tuned, 1u);
  EXPECT_EQ(run.stats.tuned_algorithm,
            static_cast<uint64_t>(TunerEngine::kNone));
  EXPECT_EQ(tuned.Digest(), ref.Digest());
  EXPECT_EQ(tuned.count(), ref.count());
}

TEST(TunerEndToEndTest, AutoTuneAppliesToParallelRuns) {
  // The tuned knobs reach the session pool's workers; digest identity
  // must hold there too (the dense row picks different knobs than the
  // default).
  const BipartiteGraph graph = gen::ErdosRenyi(48, 36, 0.25, 13);
  FingerprintSink ref;
  RunOptions base;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), base, &ref, nullptr).ok());

  FingerprintSink tuned;
  RunOptions o;
  o.auto_tune = true;
  o.threads = 4;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), o, &tuned, &run).ok());
  EXPECT_EQ(run.stats.auto_tuned, 1u);
  EXPECT_EQ(tuned.Digest(), ref.Digest());
  EXPECT_EQ(tuned.count(), ref.count());
}

}  // namespace
}  // namespace mbe
