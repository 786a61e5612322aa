// Baseline-specific behavior: MBEA vs iMBEA work profiles, MineLMBC's
// from-scratch checking, subtree-mode pruning, and the direct (non-facade)
// entry points.

#include <gtest/gtest.h>

#include "baselines/mbea.h"
#include "baselines/mine_lmbc.h"
#include "core/run_control.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "graph/ordering.h"

namespace mbe {
namespace {

BipartiteGraph Workload(uint64_t seed = 70) {
  return gen::PowerLaw(250, 180, 1400, 0.85, 0.8, seed);
}

TEST(MbeaBaselineTest, GlobalRootAndSubtreeModesAgree) {
  BipartiteGraph graph = Workload();
  MbeaEnumerator global(graph, MbeaOptions{.improved = true});
  FingerprintSink a;
  global.EnumerateAll(&a);

  MbeaEnumerator subtree(graph, MbeaOptions{.improved = true});
  FingerprintSink b;
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    subtree.EnumerateSubtree(v, &b);
  }
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_GT(a.count(), 0u);
}

TEST(MbeaBaselineTest, ImprovedVariantDoesLessWitnessWork) {
  BipartiteGraph graph = ApplyOrder(Workload(), VertexOrder::kDegreeAsc);
  MbeaEnumerator plain(graph, MbeaOptions{.improved = false});
  CountSink s1;
  plain.EnumerateAll(&s1);
  MbeaEnumerator improved(graph, MbeaOptions{.improved = true});
  CountSink s2;
  improved.EnumerateAll(&s2);
  EXPECT_EQ(s1.count(), s2.count());
  // iMBEA's candidate ordering prunes non-maximal children earlier.
  EXPECT_LE(improved.stats().non_maximal, plain.stats().non_maximal * 2);
}

TEST(MineLmbcBaselineTest, CountersAreConsistent) {
  BipartiteGraph graph = gen::PowerLaw(120, 90, 600, 0.8, 0.8, 71);
  MineLmbcEnumerator engine(graph);
  CountSink sink;
  engine.EnumerateAll(&sink);
  EXPECT_EQ(engine.stats().maximal, sink.count());
  EXPECT_GT(engine.stats().nodes_expanded, 0u);
  // Every generated child is either emitted or rejected; both appear.
  EXPECT_GT(engine.stats().non_maximal, 0u);
}

TEST(MineLmbcBaselineTest, EmptyAndTinyGraphs) {
  BipartiteGraph empty;
  MineLmbcEnumerator a(empty);
  CountSink s1;
  a.EnumerateAll(&s1);
  EXPECT_EQ(s1.count(), 0u);

  BipartiteGraph one = BipartiteGraph::FromEdges(1, 1, {{0, 0}});
  MineLmbcEnumerator b(one);
  CollectSink s2;
  b.EnumerateAll(&s2);
  const auto results = s2.TakeSorted();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (Biclique{{0}, {0}}));
}

TEST(MbeaBaselineTest, SubtreeModePrunesDominatedSubtrees) {
  // Twin-heavy graph: later twins must be pruned at the root.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 6; ++v) {
    edges.push_back({0, v});
    edges.push_back({1, v});
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(2, 6, edges);
  MbeaEnumerator engine(graph, MbeaOptions{.improved = true});
  CountSink sink;
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    engine.EnumerateSubtree(v, &sink);
  }
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(engine.stats().subtrees_pruned, 5u);
}

TEST(BaselineCrossTest, AllDirectEntryPointsAgreeOnValidity) {
  BipartiteGraph graph = gen::ErdosRenyi(40, 35, 0.12, 72);
  CollectSink mbea_sink, lmbc_sink, subtree_sink;
  MbeaEnumerator mbea(graph, MbeaOptions{.improved = true});
  mbea.EnumerateAll(&mbea_sink);
  MineLmbcEnumerator lmbc(graph);
  lmbc.EnumerateAll(&lmbc_sink);
  MbeaEnumerator subtree(graph, MbeaOptions{.improved = true});
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    subtree.EnumerateSubtree(v, &subtree_sink);
  }

  const auto expected = lmbc_sink.TakeSorted();
  EXPECT_EQ(ValidateResultSet(graph, expected), "");
  EXPECT_EQ(DiffResultSets(expected, mbea_sink.TakeSorted()), "");
  EXPECT_EQ(DiffResultSets(expected, subtree_sink.TakeSorted()), "");
}

TEST(BaselineStopTest, BaselinesHonorCancellation) {
  BipartiteGraph graph = Workload(73);
  for (int which = 0; which < 2; ++which) {
    CountSink inner;
    RunControl control;
    control.max_results = 50;
    RunController controller(control);
    ControlledSink budget(&inner, &controller);
    if (which == 0) {
      MbeaEnumerator e(graph, MbeaOptions{});
      e.EnumerateAll(&budget);
    } else {
      MineLmbcEnumerator e(graph);
      e.EnumerateAll(&budget);
    }
    EXPECT_EQ(controller.termination(), Termination::kBudget) << which;
    EXPECT_EQ(inner.count(), 50u) << which;
  }
}

}  // namespace
}  // namespace mbe
