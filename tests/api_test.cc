// Tests of the facade: id translation under relabeling/swapping, algorithm
// name round trips, and the verification oracle's own validators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"

namespace mbe {
namespace {

TEST(ApiTest, AlgorithmNamesRoundTrip) {
  // Flag name, enum, and pinned wire value (5 stays unassigned).
  struct Entry {
    const char* flag;
    Algorithm algorithm;
    uint32_t wire;
  };
  const Entry entries[] = {
      {"mbet", Algorithm::kMbet, 0},         {"mbetm", Algorithm::kMbetM, 1},
      {"minelmbc", Algorithm::kMineLmbc, 2}, {"mbea", Algorithm::kMbea, 3},
      {"imbea", Algorithm::kImbea, 4},       {"bbk", Algorithm::kBbk, 6}};
  for (const Entry& entry : entries) {
    Algorithm parsed = Algorithm::kMbet;
    ASSERT_TRUE(ParseAlgorithm(entry.flag, &parsed).ok()) << entry.flag;
    EXPECT_EQ(parsed, entry.algorithm) << entry.flag;
    EXPECT_EQ(static_cast<uint32_t>(entry.algorithm), entry.wire)
        << entry.flag;
    Algorithm decoded = Algorithm::kMbet;
    ASSERT_TRUE(AlgorithmFromValue(entry.wire, &decoded).ok()) << entry.flag;
    EXPECT_EQ(decoded, entry.algorithm) << entry.flag;
    EXPECT_STRNE(AlgorithmName(entry.algorithm), "?") << entry.flag;
  }
  Algorithm algorithm = Algorithm::kMbea;
  EXPECT_FALSE(ParseAlgorithm("oombea", &algorithm).ok());
  for (uint32_t unassigned : {5u, 7u, 255u}) {
    EXPECT_EQ(AlgorithmFromValue(unassigned, &algorithm).code(),
              util::StatusCode::kInvalidArgument)
        << unassigned;
  }
  EXPECT_EQ(algorithm, Algorithm::kMbea);  // untouched on error
}

TEST(ApiTest, UnsupportedParallelAlgorithmIsRejected) {
  BipartiteGraph graph = gen::ErdosRenyi(5, 5, 0.5, 1);
  RunOptions options;
  options.algorithm = Algorithm::kMineLmbc;
  options.threads = 4;
  CountSink sink;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, nullptr);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("does not support threads"),
            std::string::npos);
}

TEST(ApiTest, EmittedIdsAreOriginalUnderEveryPreprocessing) {
  // The emitted bicliques must be valid in the *input* graph regardless of
  // internal relabeling, hub-first ordering, or side swapping.
  BipartiteGraph graph = gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61);
  ASSERT_GT(graph.num_right(), graph.num_left());  // triggers auto swap
  for (bool hub_first : {false, true}) {
    for (VertexOrder order :
         {VertexOrder::kNone, VertexOrder::kDegreeAsc, VertexOrder::kRandom}) {
      GraphOptions graph_options;
      graph_options.hub_first_left = hub_first;
      graph_options.order = order;
      graph_options.seed = 3;
      CollectSink sink;
      ASSERT_TRUE(
          Enumerate(graph, graph_options, RunOptions(), &sink, nullptr).ok());
      const auto results = sink.TakeSorted();
      EXPECT_EQ(ValidateResultSet(graph, results), "")
          << "hub_first=" << hub_first << " order=" << VertexOrderName(order);
    }
  }
}

TEST(ApiTest, AutoSwapOffKeepsOrientationToo) {
  BipartiteGraph graph = gen::ErdosRenyi(8, 20, 0.3, 62);
  GraphOptions no_swap;
  no_swap.auto_swap_sides = false;
  GraphOptions swap;
  swap.auto_swap_sides = true;
  CollectSink a, b;
  ASSERT_TRUE(Enumerate(graph, no_swap, RunOptions(), &a, nullptr).ok());
  ASSERT_TRUE(Enumerate(graph, swap, RunOptions(), &b, nullptr).ok());
  EXPECT_EQ(DiffResultSets(a.TakeSorted(), b.TakeSorted()), "");
}

TEST(ApiTest, RunResultReportsTimeAndStats) {
  BipartiteGraph graph = gen::PowerLaw(100, 80, 500, 0.8, 0.8, 63);
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), RunOptions(), &sink, &run).ok());
  EXPECT_GE(run.seconds, 0.0);
  EXPECT_GE(run.preprocess_seconds, 0.0);
  EXPECT_EQ(run.stats.maximal, sink.count());
}

TEST(ApiTest, CountHelperAgreesWithCollect) {
  BipartiteGraph graph = gen::ErdosRenyi(20, 15, 0.25, 64);
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), RunOptions()),
            sink.TakeSorted().size());
}

TEST(ApiTest, GraphOptionsForRunReducesOnlyForTheMbetFamily) {
  RunOptions run;
  run.mbet.min_left = 3;
  run.mbet.min_right = 2;
  GraphOptions fitted = GraphOptionsForRun(GraphOptions(), run);
  EXPECT_TRUE(fitted.core_reduce);
  EXPECT_EQ(fitted.min_left, 3u);
  EXPECT_EQ(fitted.min_right, 2u);

  GraphOptions off;
  off.core_reduce = false;
  EXPECT_FALSE(GraphOptionsForRun(off, run).core_reduce);

  for (Algorithm algorithm : {Algorithm::kMineLmbc, Algorithm::kMbea,
                              Algorithm::kImbea, Algorithm::kBbk}) {
    run.algorithm = algorithm;
    EXPECT_FALSE(GraphOptionsForRun(GraphOptions(), run).core_reduce)
        << AlgorithmName(algorithm);
  }
}

// --- Verification oracle self-tests ------------------------------------------

TEST(VerifyTest, IsBicliqueChecksEdgesAndShape) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_TRUE(IsBiclique(g, Biclique{{0}, {0, 1}}));
  EXPECT_TRUE(IsBiclique(g, Biclique{{0, 1}, {0}}));
  EXPECT_FALSE(IsBiclique(g, Biclique{{0, 1}, {0, 1}}));  // (1,1) missing
  EXPECT_FALSE(IsBiclique(g, Biclique{{}, {0}}));         // empty side
  EXPECT_FALSE(IsBiclique(g, Biclique{{0, 0}, {1}}));     // duplicate
  EXPECT_FALSE(IsBiclique(g, Biclique{{1, 0}, {0}}));     // unsorted
  EXPECT_FALSE(IsBiclique(g, Biclique{{7}, {0}}));        // out of range
}

TEST(VerifyTest, IsMaximalBicliqueRejectsExtensible) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_TRUE(IsMaximalBiclique(g, Biclique{{0}, {0, 1}}));
  EXPECT_TRUE(IsMaximalBiclique(g, Biclique{{0, 1}, {0}}));
  // ({0}, {0}) extends to ({0}, {0,1}).
  EXPECT_FALSE(IsMaximalBiclique(g, Biclique{{0}, {0}}));
}

TEST(VerifyTest, ValidateResultSetFindsProblems) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  const Biclique good{{0}, {0, 1}};
  EXPECT_EQ(ValidateResultSet(g, {good}), "");
  EXPECT_NE(ValidateResultSet(g, {good, good}), "");  // duplicate
  EXPECT_NE(ValidateResultSet(g, {Biclique{{0}, {0}}}), "");  // non-maximal
}

TEST(VerifyTest, DiffResultSetsPinpointsFirstDifference) {
  const Biclique a{{0}, {1}};
  const Biclique b{{1}, {2}};
  EXPECT_EQ(DiffResultSets({a, b}, {b, a}), "");  // order-insensitive
  EXPECT_NE(DiffResultSets({a, b}, {a}), "");
  EXPECT_NE(DiffResultSets({a}, {a, b}), "");
  const std::string missing = DiffResultSets({a, b}, {a});
  EXPECT_NE(missing.find("missing"), std::string::npos);
}

TEST(VerifyTest, BruteForceOnKnownGraph) {
  // Path u0-v0, u0-v1, u1-v1: maximal bicliques ({0},{0,1}), ({0,1},{1}).
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  const auto results = BruteForceMbe(g);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (Biclique{{0}, {0, 1}}));
  EXPECT_EQ(results[1], (Biclique{{0, 1}, {1}}));
}

TEST(VerifyDeathTest, BruteForceRefusesHugeRightSide) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 30, {{0, 0}});
  EXPECT_DEATH(BruteForceMbe(g), "brute force limited");
}

}  // namespace
}  // namespace mbe
