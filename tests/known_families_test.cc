// Correctness on graph families with closed-form maximal-biclique counts.
// These go far beyond the brute-force oracle's reach (the crown family is
// exponential) and pin down exact combinatorial structure.

#include <gtest/gtest.h>

#include <vector>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"

namespace mbe {
namespace {

// An algorithm under a right-side order, run whole-graph (Enumerate) or
// subtree by subtree (EnumerateSubtreeTasks). The paper's ooMBEA-lite
// baseline is subtree-local iMBEA under the unilateral order.
struct EngineCase {
  Algorithm algorithm;
  VertexOrder order = VertexOrder::kDegreeAsc;
  bool subtree_tasks = false;
};

uint64_t Count(const BipartiteGraph& graph, EngineCase engine) {
  RunOptions options;
  options.algorithm = engine.algorithm;
  GraphOptions graph_options;
  graph_options.order = engine.order;
  CountSink sink;
  EXPECT_TRUE((engine.subtree_tasks ? EnumerateSubtreeTasks : Enumerate)(
                  graph, graph_options, options, &sink, nullptr)
                  .ok());
  return sink.count();
}

const EngineCase kAll[] = {
    {Algorithm::kMbet},
    {Algorithm::kMbetM},
    {Algorithm::kMbea},
    {Algorithm::kImbea},
    {Algorithm::kImbea, VertexOrder::kUnilateralAsc, true}};

class CrownTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CrownTest, CountIsTwoToTheNMinusTwo) {
  const size_t n = GetParam();
  BipartiteGraph graph = gen::Crown(n);
  const uint64_t expected = (1ull << n) - 2;
  for (const EngineCase& engine : kAll) {
    EXPECT_EQ(Count(graph, engine), expected)
        << AlgorithmName(engine.algorithm) << " n=" << n;
  }
}

// MineLMBC recomputes C(L') per node and is hopeless beyond tiny crowns;
// run it only on the smallest sizes.
TEST(CrownTest, MineLmbcOnSmallCrowns) {
  for (size_t n : {2u, 3u, 4u, 6u}) {
    EXPECT_EQ(Count(gen::Crown(n), {Algorithm::kMineLmbc}), (1ull << n) - 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrownTest,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 12, 14, 16));

/// Half graph: u_i ~ v_j iff i <= j. Maximal bicliques form a chain
/// ({u_0..u_i}, {v_i..v_{n-1}}) for each i — exactly n of them.
BipartiteGraph HalfGraph(size_t n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u; v < n; ++v) edges.push_back({u, v});
  }
  return BipartiteGraph::FromEdges(n, n, edges);
}

class HalfGraphTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HalfGraphTest, CountIsN) {
  const size_t n = GetParam();
  BipartiteGraph graph = HalfGraph(n);
  for (const EngineCase& engine : kAll) {
    EXPECT_EQ(Count(graph, engine), n) << AlgorithmName(engine.algorithm);
  }
  // And the bicliques really are the chain.
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  for (const Biclique& b : sink.TakeSorted()) {
    ASSERT_FALSE(b.left.empty());
    const VertexId i = b.left.back();
    EXPECT_EQ(b.left.size(), static_cast<size_t>(i) + 1);
    EXPECT_EQ(b.right.size(), n - i);
    EXPECT_EQ(b.right.front(), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HalfGraphTest,
                         ::testing::Values(1, 2, 5, 10, 40, 100));

/// Complete bipartite K_{a,b}: exactly one maximal biclique.
TEST(CompleteTest, SingleBiclique) {
  for (size_t a : {1u, 3u, 7u}) {
    for (size_t b : {1u, 4u, 9u}) {
      std::vector<Edge> edges;
      for (VertexId u = 0; u < a; ++u) {
        for (VertexId v = 0; v < b; ++v) edges.push_back({u, v});
      }
      BipartiteGraph graph = BipartiteGraph::FromEdges(a, b, edges);
      for (const EngineCase& engine : kAll) {
        EXPECT_EQ(Count(graph, engine), 1u)
            << AlgorithmName(engine.algorithm) << " K_" << a << "," << b;
      }
    }
  }
}

/// Disjoint union of complete blocks: one maximal biclique per block,
/// independent of block sizes.
TEST(BlockDiagonalTest, OneBicliquePerBlock) {
  const size_t blocks = 12, a = 3, b = 4;
  std::vector<Edge> edges;
  for (size_t k = 0; k < blocks; ++k) {
    for (VertexId u = 0; u < a; ++u) {
      for (VertexId v = 0; v < b; ++v) {
        edges.push_back({static_cast<VertexId>(k * a + u),
                         static_cast<VertexId>(k * b + v)});
      }
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(blocks * a, blocks * b, edges);
  for (const EngineCase& engine : kAll) {
    EXPECT_EQ(Count(graph, engine), blocks) << AlgorithmName(engine.algorithm);
  }
}

/// K_{n,n} minus one edge (u0, v0): the maximal bicliques are
/// (U \ {u0}, V), (U, V \ {v0}), — and nothing else.
TEST(AlmostCompleteTest, MinusOneEdgeGivesTwo) {
  const size_t n = 8;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (!(u == 0 && v == 0)) edges.push_back({u, v});
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(n, n, edges);
  CollectSink sink;
  ASSERT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  const auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].left.size() + results[0].right.size(), 2 * n - 1);
  EXPECT_EQ(results[1].left.size() + results[1].right.size(), 2 * n - 1);
}

/// Crown counts also hold under every ablation configuration (exponential
/// stress of the prefix-tree machinery specifically).
TEST(CrownTest, AblationsSurviveExponentialFamily) {
  BipartiteGraph graph = gen::Crown(12);
  const uint64_t expected = (1ull << 12) - 2;
  for (bool trie : {false, true}) {
    for (bool agg : {false, true}) {
      RunOptions options;
      options.mbet.use_trie = trie;
      options.mbet.use_aggregation = agg;
      EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), options), expected)
          << "trie=" << trie << " agg=" << agg;
    }
  }
}

/// Size filters on the crown have closed form too: bicliques with
/// |L| >= p and |R| >= q correspond to S with p <= |S| <= n - q, so the
/// count is sum of binomials.
TEST(CrownTest, SizeFiltersHaveClosedForm) {
  const size_t n = 10;
  BipartiteGraph graph = gen::Crown(n);
  auto binom = [](uint64_t n_, uint64_t k_) {
    uint64_t r = 1;
    for (uint64_t i = 1; i <= k_; ++i) r = r * (n_ - k_ + i) / i;
    return r;
  };
  for (uint32_t p : {1u, 2u, 4u}) {
    for (uint32_t q : {1u, 3u}) {
      uint64_t expected = 0;
      for (uint64_t s = std::max<uint64_t>(p, 1); s + q <= n; ++s) {
        expected += binom(n, s);
      }
      RunOptions options;
      options.mbet.min_left = p;
      options.mbet.min_right = q;
      EXPECT_EQ(CountMaximalBicliques(graph, GraphOptions(), options),
                expected)
          << "p=" << p << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace mbe
