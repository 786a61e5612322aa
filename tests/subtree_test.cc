// Unit tests for the subtree-root builder: the per-vertex decomposition
// every enumerator and the parallel driver rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/subtree.h"
#include "gen/generators.h"

namespace mbe {
namespace {

// The running-example graph of the MBE literature (5 x 4).
BipartiteGraph LiteratureGraph() {
  return BipartiteGraph::FromEdges(
      5, 4,
      {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 1},
       {3, 1}, {3, 2}, {3, 3}, {4, 3}});
}

TEST(SubtreeBuilderTest, RootOfFirstVertex) {
  BipartiteGraph g = LiteratureGraph();
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  ASSERT_TRUE(builder.Build(0, &root, &absorbed, &pruned));
  EXPECT_FALSE(pruned);
  EXPECT_EQ(root.seed, 0u);
  // L0 = N(v0) = {u0, u1}.
  EXPECT_EQ(root.l0, (std::vector<VertexId>{0, 1}));
  // No other vertex is adjacent to both u0 and u1 except v1, v2 — check
  // absorbed: N(v1) = {u0,u1,u2,u3} ⊇ L0, N(v2) = {u0,u1,u3} ⊇ L0.
  EXPECT_EQ(absorbed, (std::vector<VertexId>{1, 2}));
  // v3 has loc {u1}: stays a candidate entry, not forbidden (3 > 0).
  ASSERT_EQ(root.entries.size(), 1u);
  EXPECT_EQ(root.entries[0].w, 3u);
  EXPECT_FALSE(root.entries[0].forbidden);
  auto loc = root.LocOf(root.entries[0]);
  EXPECT_EQ(std::vector<VertexId>(loc.begin(), loc.end()),
            (std::vector<VertexId>{1}));
}

TEST(SubtreeBuilderTest, LaterVertexSeesForbiddenPredecessors) {
  BipartiteGraph g = LiteratureGraph();
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  // v2: L0 = N(v2) = {u0, u1, u3}; v1 (earlier, N={u0,u1,u2,u3} ⊇ L0)
  // dominates -> the subtree is pruned.
  EXPECT_FALSE(builder.Build(2, &root, &absorbed, &pruned));
  EXPECT_TRUE(pruned);
}

TEST(SubtreeBuilderTest, ZeroDegreeVertexYieldsNoSubtree) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}});
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  EXPECT_FALSE(builder.Build(1, &root, &absorbed, &pruned));
  EXPECT_FALSE(pruned);
}

TEST(SubtreeBuilderTest, TwinVerticesAbsorbForward) {
  // v0 and v1 are twins (same neighborhood). subtree(v0) absorbs v1;
  // subtree(v1) is pruned.
  BipartiteGraph g =
      BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  ASSERT_TRUE(builder.Build(0, &root, &absorbed, &pruned));
  EXPECT_EQ(absorbed, (std::vector<VertexId>{1}));
  EXPECT_TRUE(root.entries.empty());

  EXPECT_FALSE(builder.Build(1, &root, &absorbed, &pruned));
  EXPECT_TRUE(pruned);
}

TEST(SubtreeBuilderTest, EntriesCoverExactlyUsefulTwoHops) {
  BipartiteGraph g = gen::PowerLaw(60, 40, 300, 0.8, 0.8, 3);
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  for (VertexId v = 0; v < g.num_right(); ++v) {
    if (!builder.Build(v, &root, &absorbed, &pruned)) continue;
    // Every entry has a nonempty local that is a strict subset of L0,
    // sorted, and consistent with the adjacency.
    for (const RootEntry& entry : root.entries) {
      auto loc = root.LocOf(entry);
      EXPECT_FALSE(loc.empty());
      EXPECT_LT(loc.size(), root.l0.size());
      EXPECT_TRUE(std::is_sorted(loc.begin(), loc.end()));
      EXPECT_EQ(entry.forbidden, entry.w < v);
      for (VertexId u : loc) {
        EXPECT_TRUE(g.HasEdge(u, entry.w));
        EXPECT_TRUE(g.HasEdge(u, v));
      }
    }
    // Absorbed vertices dominate L0 entirely.
    for (VertexId w : absorbed) {
      EXPECT_GT(w, v);
      for (VertexId u : root.l0) EXPECT_TRUE(g.HasEdge(u, w));
    }
  }
}

}  // namespace
}  // namespace mbe
