// Cross-validation of every enumerator against the brute-force oracle on
// small random graphs, and against each other on medium graphs. These are
// the load-bearing correctness tests of the library: every algorithm,
// every ablation configuration, and the session pool must produce the
// exact same set of maximal bicliques.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "util/random.h"

namespace mbe {
namespace {

std::vector<Biclique> RunEnum(const BipartiteGraph& graph,
                              const RunOptions& options,
                              const GraphOptions& graph_options =
                                  GraphOptions()) {
  CollectSink sink;
  EXPECT_TRUE(Enumerate(graph, graph_options, options, &sink, nullptr).ok());
  return sink.TakeSorted();
}

// An algorithm under a right-side order, run whole-graph (Enumerate) or
// subtree by subtree (EnumerateSubtreeTasks). The paper's ooMBEA-lite
// baseline is subtree-local iMBEA under the unilateral order.
struct EngineCase {
  Algorithm algorithm;
  VertexOrder order = VertexOrder::kDegreeAsc;
  bool subtree_tasks = false;
};

constexpr EngineCase kAllEngines[] = {
    {Algorithm::kMbet},  {Algorithm::kMbetM}, {Algorithm::kMineLmbc},
    {Algorithm::kMbea},  {Algorithm::kImbea},
    {Algorithm::kImbea, VertexOrder::kUnilateralAsc, true}};

std::vector<Biclique> RunEnum(const BipartiteGraph& graph, EngineCase engine) {
  RunOptions options;
  options.algorithm = engine.algorithm;
  GraphOptions graph_options;
  graph_options.order = engine.order;
  CollectSink sink;
  EXPECT_TRUE((engine.subtree_tasks ? EnumerateSubtreeTasks : Enumerate)(
                  graph, graph_options, options, &sink, nullptr)
                  .ok());
  return sink.TakeSorted();
}

std::string Label(EngineCase engine) {
  return std::string(AlgorithmName(engine.algorithm)) + "/" +
         VertexOrderName(engine.order) +
         (engine.subtree_tasks ? "/subtrees" : "");
}

// --- Oracle cross-check on exhaustive small random graphs ----------------

struct OracleCase {
  size_t num_left;
  size_t num_right;
  double p;
  uint64_t seed;
};

class OracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleTest, AllAlgorithmsMatchBruteForce) {
  const OracleCase& c = GetParam();
  BipartiteGraph graph =
      gen::ErdosRenyi(c.num_left, c.num_right, c.p, c.seed);
  const std::vector<Biclique> expected = BruteForceMbe(graph);

  for (const EngineCase& engine : kAllEngines) {
    const std::vector<Biclique> actual = RunEnum(graph, engine);
    EXPECT_EQ(DiffResultSets(expected, actual), "")
        << Label(engine) << " on " << graph.Summary() << " seed=" << c.seed;
    EXPECT_EQ(actual.size(), expected.size()) << Label(engine);
  }
}

std::vector<OracleCase> MakeOracleCases() {
  std::vector<OracleCase> cases;
  uint64_t seed = 1000;
  for (size_t nl : {1u, 3u, 6u, 10u}) {
    for (size_t nr : {1u, 4u, 8u, 12u}) {
      for (double p : {0.1, 0.3, 0.6, 0.9}) {
        cases.push_back({nl, nr, p, ++seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, OracleTest,
                         ::testing::ValuesIn(MakeOracleCases()));

// Skewed-degree oracle sweep: power-law graphs drive the aggregation and
// witness machinery much harder than uniform ones at equal size.
class SkewedOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkewedOracleTest, AllAlgorithmsMatchBruteForce) {
  BipartiteGraph graph = gen::PowerLaw(18, 13, 70, 0.9, 0.9, GetParam());
  const std::vector<Biclique> expected = BruteForceMbe(graph);
  for (const EngineCase& engine : kAllEngines) {
    EXPECT_EQ(DiffResultSets(expected, RunEnum(graph, engine)), "")
        << Label(engine) << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewedOracleTest,
                         ::testing::Range<uint64_t>(3000, 3020));

// Planted-structure oracle sweep: dense blocks inside sparse noise.
class PlantedOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlantedOracleTest, MbetVariantsMatchBruteForce) {
  BipartiteGraph base = gen::ErdosRenyi(16, 12, 0.12, GetParam());
  BipartiteGraph graph =
      gen::PlantBicliques(base, 2, 5, 4, GetParam() + 1, nullptr);
  const std::vector<Biclique> expected = BruteForceMbe(graph);
  for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kMbetM}) {
    EXPECT_EQ(DiffResultSets(expected, RunEnum(graph, EngineCase{algorithm})),
              "")
        << AlgorithmName(algorithm) << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedOracleTest,
                         ::testing::Range<uint64_t>(4000, 4015));

// --- Ablation configurations keep exactness -------------------------------

struct AblationCase {
  bool use_trie;
  bool use_aggregation;
  bool prune_q;
  bool recompute_locals;
};

class AblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(AblationTest, MatchesBruteForce) {
  const AblationCase& c = GetParam();
  for (uint64_t seed : {7u, 8u, 9u}) {
    BipartiteGraph graph = gen::ErdosRenyi(12, 12, 0.35, seed);
    const std::vector<Biclique> expected = BruteForceMbe(graph);
    RunOptions options;
    options.algorithm = Algorithm::kMbet;
    options.mbet.use_trie = c.use_trie;
    options.mbet.use_aggregation = c.use_aggregation;
    options.mbet.prune_q = c.prune_q;
    options.mbet.recompute_locals = c.recompute_locals;
    EXPECT_EQ(DiffResultSets(expected, RunEnum(graph, options)), "")
        << "trie=" << c.use_trie << " agg=" << c.use_aggregation
        << " pruneq=" << c.prune_q << " recompute=" << c.recompute_locals
        << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSwitchCombos, AblationTest,
    ::testing::ValuesIn([] {
      std::vector<AblationCase> cases;
      for (int trie = 0; trie < 2; ++trie) {
        for (int agg = 0; agg < 2; ++agg) {
          for (int pq = 0; pq < 2; ++pq) {
            for (int rec = 0; rec < 2; ++rec) {
              cases.push_back({trie != 0, agg != 0, pq != 0, rec != 0});
            }
          }
        }
      }
      return cases;
    }()));

// --- Orders do not change the result set ----------------------------------

class OrderTest : public ::testing::TestWithParam<VertexOrder> {};

TEST_P(OrderTest, SameResultUnderEveryOrder) {
  BipartiteGraph graph = gen::PowerLaw(40, 30, 200, 0.8, 0.8, 42);
  GraphOptions base;
  base.order = VertexOrder::kNone;
  const std::vector<Biclique> expected = RunEnum(graph, RunOptions(), base);
  ASSERT_EQ(ValidateResultSet(graph, expected), "");

  GraphOptions graph_options;
  graph_options.order = GetParam();
  graph_options.seed = 5;
  EXPECT_EQ(
      DiffResultSets(expected, RunEnum(graph, RunOptions(), graph_options)),
      "")
      << VertexOrderName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, OrderTest,
    ::testing::Values(VertexOrder::kNone, VertexOrder::kDegreeAsc,
                      VertexOrder::kDegreeDesc, VertexOrder::kTwoHopAsc,
                      VertexOrder::kUnilateralAsc, VertexOrder::kRandom));

// --- Medium graphs: algorithms agree with each other ----------------------

TEST(CrossCheckTest, MediumPowerLawAllAlgorithmsAgree) {
  BipartiteGraph graph = gen::PowerLaw(300, 200, 1800, 0.85, 0.8, 77);
  const std::vector<Biclique> reference = RunEnum(graph, RunOptions());
  ASSERT_EQ(ValidateResultSet(graph, reference), "");
  ASSERT_GT(reference.size(), 100u) << "workload too trivial to be a test";

  for (const EngineCase& engine : kAllEngines) {
    EXPECT_EQ(DiffResultSets(reference, RunEnum(graph, engine)), "")
        << Label(engine);
  }
}

TEST(CrossCheckTest, PlantedBicliquesAreFound) {
  BipartiteGraph base = gen::ErdosRenyi(60, 50, 0.05, 11);
  std::vector<gen::PlantedBiclique> planted;
  BipartiteGraph graph = gen::PlantBicliques(base, 4, 5, 4, 12, &planted);
  ASSERT_EQ(planted.size(), 4u);

  const std::vector<Biclique> results = RunEnum(graph, RunOptions());
  ASSERT_EQ(ValidateResultSet(graph, results), "");
  // Every planted block must be contained in some maximal biclique.
  for (const gen::PlantedBiclique& block : planted) {
    bool contained = false;
    for (const Biclique& b : results) {
      if (IsSubset(block.left, b.left) && IsSubset(block.right, b.right)) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "planted block lost";
  }
}

// --- The session pool produces identical results --------------------------

TEST(ParallelTest, ThreadsDoNotChangeResults) {
  BipartiteGraph graph = gen::PowerLaw(250, 180, 1500, 0.85, 0.8, 99);
  const std::vector<Biclique> reference = RunEnum(graph, RunOptions());

  for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kImbea}) {
    for (unsigned threads : {2u, 4u, 8u}) {
      RunOptions options;
      options.algorithm = algorithm;
      options.threads = threads;
      EXPECT_EQ(DiffResultSets(reference, RunEnum(graph, options)), "")
          << AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

// --- Degenerate graphs -----------------------------------------------------

TEST(EdgeCaseTest, EmptyGraph) {
  BipartiteGraph graph;
  EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), RunOptions()), 0u);
}

TEST(EdgeCaseTest, NoEdges) {
  BipartiteGraph graph = BipartiteGraph::FromEdges(5, 7, {});
  EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), RunOptions()), 0u);
}

TEST(EdgeCaseTest, SingleEdge) {
  BipartiteGraph graph = BipartiteGraph::FromEdges(3, 3, {{1, 2}});
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  const auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (Biclique{{1}, {2}}));
}

TEST(EdgeCaseTest, CompleteBipartite) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 5; ++v) edges.push_back({u, v});
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(4, 5, edges);
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  const auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].left.size(), 4u);
  EXPECT_EQ(results[0].right.size(), 5u);
}

TEST(EdgeCaseTest, PerfectMatchingYieldsOneBicliquePerEdge) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 10; ++i) edges.push_back({i, i});
  BipartiteGraph graph = BipartiteGraph::FromEdges(10, 10, edges);
  EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), RunOptions()), 10u);
}

TEST(EdgeCaseTest, StarGraph) {
  // One left hub connected to every right vertex: exactly one maximal
  // biclique ({hub}, V).
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 8; ++v) edges.push_back({0, v});
  BipartiteGraph graph = BipartiteGraph::FromEdges(1, 8, edges);
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  const auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].right.size(), 8u);
}

// --- The worked example from the MBE literature ---------------------------

TEST(KnownGraphTest, LiteratureExampleHasSixMaximalBicliques) {
  // The running-example bipartite graph G0 used across the GMBE/MBET line
  // of papers: U = {u1..u5}, V = {v1..v4} (0-indexed here), 6 maximal
  // bicliques.
  std::vector<Edge> edges = {
      {0, 0}, {0, 1}, {0, 2},          // u1 - v1 v2 v3
      {1, 0}, {1, 1}, {1, 2}, {1, 3},  // u2 - v1 v2 v3 v4
      {2, 1},                          // u3 - v2
      {3, 1}, {3, 2}, {3, 3},          // u4 - v2 v3 v4
      {4, 3},                          // u5 - v4
  };
  BipartiteGraph graph = BipartiteGraph::FromEdges(5, 4, edges);
  const std::vector<Biclique> expected = BruteForceMbe(graph);
  EXPECT_EQ(expected.size(), 6u);
  for (const EngineCase& engine : kAllEngines) {
    EXPECT_EQ(DiffResultSets(expected, RunEnum(graph, engine)), "")
        << Label(engine);
  }
}

}  // namespace
}  // namespace mbe
