// Unit tests for the subtree-root builder: the per-vertex decomposition
// every enumerator and the session pool rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
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
  // Locals are in local ids: positions in l0.
  std::vector<VertexId> loc;
  for (VertexId x : root.LocOf(root.entries[0])) loc.push_back(root.l0[x]);
  EXPECT_EQ(loc, (std::vector<VertexId>{1}));
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
      std::vector<VertexId> loc;
      for (VertexId x : root.LocOf(entry)) {
        ASSERT_LT(x, root.l0.size());
        loc.push_back(root.l0[x]);
      }
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

// Twin-heavy graph: a random base plus, for every base right vertex j, a
// later twin (N = N(j)) and a later strict subset of N(j). Both copies
// are dominated by j, so their roots are pruned, and j's root absorbs its
// twin. One isolated right vertex closes the id range.
BipartiteGraph TwinHeavyGraph() {
  const BipartiteGraph base = gen::ErdosRenyi(30, 20, 0.25, 11);
  const size_t n = base.num_right();
  std::vector<Edge> edges;
  for (VertexId j = 0; j < n; ++j) {
    auto nbrs = base.RightNeighbors(j);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      edges.push_back({nbrs[i], j});
      edges.push_back({nbrs[i], static_cast<VertexId>(n + j)});
      if (i % 2 == 0) {
        edges.push_back({nbrs[i], static_cast<VertexId>(2 * n + j)});
      }
    }
  }
  return BipartiteGraph::FromEdges(base.num_left(), 3 * n + 1,
                                   std::move(edges));
}

// Differential check of every root against a reference built from
// HasEdge alone. One builder runs over all v in sequence, so a root built
// right after a pruned one shows the early exit left no stale state. The
// first three graphs span few bitmap words, so N2(v) is ordered by the
// bitmap scan; the last spreads a few two-hop neighbors over 2000 right
// ids, so it takes the comparison sort.
TEST(SubtreeBuilderTest, MatchesBruteForceRoots) {
  const BipartiteGraph graphs[] = {gen::PowerLaw(60, 40, 300, 0.8, 0.8, 3),
                                   gen::ErdosRenyi(40, 50, 0.15, 7),
                                   TwinHeavyGraph(),
                                   gen::ErdosRenyi(20, 2000, 0.002, 5)};
  size_t built_after_pruned = 0;
  for (const BipartiteGraph& g : graphs) {
    SubtreeBuilder builder(g);
    SubtreeRoot root;
    std::vector<VertexId> absorbed;
    bool pruned = false;
    bool prev_pruned = false;
    for (VertexId v = 0; v < g.num_right(); ++v) {
      SCOPED_TRACE(testing::Message() << "v=" << v);
      const std::vector<VertexId> l0(g.RightNeighbors(v).begin(),
                                     g.RightNeighbors(v).end());
      struct Expected {
        VertexId w;
        bool forbidden;
        std::vector<VertexId> loc;  // local ids
      };
      std::vector<Expected> want_entries;
      std::vector<VertexId> want_absorbed;
      bool want_pruned = false;
      for (VertexId w = 0; w < g.num_right(); ++w) {
        if (w == v) continue;
        std::vector<VertexId> loc;
        for (VertexId i = 0; i < l0.size(); ++i) {
          if (g.HasEdge(l0[i], w)) loc.push_back(i);
        }
        if (loc.empty()) continue;
        if (loc.size() == l0.size()) {
          if (w < v) want_pruned = true;
          else want_absorbed.push_back(w);
        } else {
          want_entries.push_back({w, w < v, loc});
        }
      }
      const bool want_built = !l0.empty() && !want_pruned;

      const bool built = builder.Build(v, &root, &absorbed, &pruned);
      ASSERT_EQ(built, want_built);
      ASSERT_EQ(pruned, want_pruned);
      if (built) {
        if (prev_pruned) ++built_after_pruned;
        EXPECT_EQ(root.seed, v);
        EXPECT_EQ(root.l0, l0);
        EXPECT_EQ(absorbed, want_absorbed);
        ASSERT_EQ(root.entries.size(), want_entries.size());
        for (size_t k = 0; k < want_entries.size(); ++k) {
          const RootEntry& entry = root.entries[k];
          EXPECT_EQ(entry.w, want_entries[k].w);
          EXPECT_EQ(entry.forbidden, want_entries[k].forbidden);
          auto loc = root.LocOf(entry);
          EXPECT_EQ(std::vector<VertexId>(loc.begin(), loc.end()),
                    want_entries[k].loc);
        }
      }
      prev_pruned = pruned;
    }
  }
  EXPECT_GT(built_after_pruned, 0u);
}

}  // namespace
}  // namespace mbe
