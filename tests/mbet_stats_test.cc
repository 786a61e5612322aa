// Structural tests of MBET's counters and resource accounting: the
// ablation switches must move the counters in the documented direction,
// and the memory budget must balance to zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "api/mbe.h"
#include "core/mbet.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "util/memory.h"

namespace mbe {
namespace {

BipartiteGraph Workload(uint64_t seed = 50) {
  return gen::PowerLaw(300, 200, 1700, 0.85, 0.8, seed);
}

TEST(MbetStatsTest, MaximalCounterMatchesEmissions) {
  BipartiteGraph graph = Workload();
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  EXPECT_EQ(engine.stats().maximal, sink.count());
  EXPECT_GT(engine.stats().nodes_expanded, 0u);
}

TEST(MbetStatsTest, AggregationOffMeansNoMerges) {
  BipartiteGraph graph = Workload();
  MbetOptions options;
  options.use_aggregation = false;
  CountSink sink;
  MbetEnumerator engine(graph, options);
  engine.EnumerateAll(&sink);
  EXPECT_EQ(engine.stats().vertices_aggregated, 0u);
}

TEST(MbetStatsTest, AggregationReducesNodeCount) {
  BipartiteGraph graph = Workload();
  MbetOptions with_agg;
  MbetOptions without_agg;
  without_agg.use_aggregation = false;

  CountSink s1, s2;
  MbetEnumerator a(graph, with_agg);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, without_agg);
  b.EnumerateAll(&s2);

  EXPECT_EQ(s1.count(), s2.count());
  EXPECT_GT(a.stats().vertices_aggregated, 0u);
  // Merged groups are traversed once instead of once per member.
  EXPECT_LT(a.stats().nodes_expanded + a.stats().non_maximal,
            b.stats().nodes_expanded + b.stats().non_maximal);
}

TEST(MbetStatsTest, TrieReducesProbesOnWideNodes) {
  BipartiteGraph graph = Workload();
  MbetOptions with_trie;
  with_trie.trie_min_groups = 1;  // force the trie everywhere
  MbetOptions without_trie;
  without_trie.use_trie = false;

  CountSink s1, s2;
  MbetEnumerator a(graph, with_trie);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, without_trie);
  b.EnumerateAll(&s2);

  EXPECT_EQ(s1.count(), s2.count());
  // Identical logical scans, fewer physical probes via shared prefixes.
  EXPECT_EQ(a.stats().local_scan_size, b.stats().local_scan_size);
  EXPECT_LT(a.stats().trie_probes, b.stats().trie_probes);
}

TEST(MbetStatsTest, TrieThresholdDoesNotChangeResults) {
  BipartiteGraph graph = Workload(51);
  uint64_t reference = 0;
  for (uint32_t threshold : {1u, 2u, 4u, 16u, 1000000u}) {
    MbetOptions options;
    options.trie_min_groups = threshold;
    FingerprintSink sink;
    MbetEnumerator engine(graph, options);
    engine.EnumerateAll(&sink);
    if (threshold == 1) {
      reference = sink.Digest();
    } else {
      EXPECT_EQ(sink.Digest(), reference) << "threshold=" << threshold;
    }
  }
}

TEST(MbetStatsTest, QPruningOnlyAffectsWork) {
  BipartiteGraph graph = Workload(52);
  MbetOptions keep_q;
  keep_q.prune_q = false;
  MbetOptions drop_q;

  FingerprintSink s1, s2;
  MbetEnumerator a(graph, keep_q);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, drop_q);
  b.EnumerateAll(&s2);
  EXPECT_EQ(s1.Digest(), s2.Digest());
  // Keeping dead Q groups means strictly more scanning.
  EXPECT_GE(a.stats().local_scan_size, b.stats().local_scan_size);
}

TEST(MbetStatsTest, MemoryBudgetBalancesToZero) {
  BipartiteGraph graph = Workload(53);
  util::MemoryBudget budget;
  util::ScopedBudgetBinding binding(&budget);
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  EXPECT_EQ(budget.charged(), 0u) << "level accounting leaked";
  EXPECT_GT(budget.peak(), 0u);
}

// MBETM recomputes locals instead of storing them: its peak charged
// working set, as the run reports it, stays below MBET's.
TEST(MbetStatsTest, MbetmPeakBelowMbetPeak) {
  BipartiteGraph graph = Workload(54);
  auto run = [&graph](Algorithm algorithm) {
    RunOptions options;
    options.algorithm = algorithm;
    CountSink sink;
    RunResult result;
    EXPECT_TRUE(
        Enumerate(graph, GraphOptions(), options, &sink, &result).ok());
    EXPECT_EQ(result.stats.maximal, sink.count());
    return result.stats;
  };
  const EnumStats full = run(Algorithm::kMbet);
  const EnumStats slim = run(Algorithm::kMbetM);
  EXPECT_EQ(full.maximal, slim.maximal);
  EXPECT_LT(slim.peak_charged_bytes, full.peak_charged_bytes);
}

TEST(MbetStatsTest, ResetStatsClears) {
  BipartiteGraph graph = Workload(55);
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  ASSERT_GT(engine.stats().maximal, 0u);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().maximal, 0u);
  EXPECT_EQ(engine.stats().nodes_expanded, 0u);
}

TEST(MbetStatsTest, SubtreePrunesAppearOnTwinHeavyGraphs) {
  // Many duplicate neighborhoods -> later twins prune their subtrees.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 10; ++v) {
    edges.push_back({0, v});
    edges.push_back({1, v});
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(2, 10, edges);
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  EXPECT_EQ(sink.count(), 1u);  // one maximal biclique: ({0,1}, all V)
  EXPECT_EQ(engine.stats().subtrees_pruned, 9u);
}

TEST(MbetStatsTest, TwinBlowUpLeavesSearchTreeUnchanged) {
  // Replacing each right vertex v by t twins v*t .. v*t+t-1 changes no
  // maximal biclique beyond its R, and every twin class must merge into one
  // group: a missed or a wrong merge changes the search tree's node counts.
  const BipartiteGraph base = Workload();
  std::vector<Biclique> reference;
  EnumStats reference_stats;
  uint64_t prev_aggregated = 0;
  for (VertexId t : {1u, 2u, 3u}) {
    std::vector<Edge> edges;
    for (const Edge& e : base.ToEdges()) {
      for (VertexId k = 0; k < t; ++k) edges.push_back({e.u, e.v * t + k});
    }
    const BipartiteGraph graph =
        BipartiteGraph::FromEdges(base.num_left(), base.num_right() * t, edges);
    CollectSink sink;
    MbetEnumerator engine(graph, MbetOptions{});
    engine.EnumerateAll(&sink);
    std::vector<Biclique> collapsed = sink.TakeSorted();
    for (Biclique& b : collapsed) {
      ASSERT_EQ(b.right.size() % t, 0u) << "t=" << t;
      for (VertexId& v : b.right) v /= t;
      b.right.erase(std::unique(b.right.begin(), b.right.end()),
                    b.right.end());
    }
    std::sort(collapsed.begin(), collapsed.end());
    const EnumStats& stats = engine.stats();
    if (t == 1) {
      reference = std::move(collapsed);
      reference_stats = stats;
    } else {
      EXPECT_EQ(collapsed, reference) << "t=" << t;
      EXPECT_EQ(stats.nodes_expanded, reference_stats.nodes_expanded);
      EXPECT_EQ(stats.non_maximal, reference_stats.non_maximal);
      EXPECT_EQ(stats.candidates_absorbed, reference_stats.candidates_absorbed);
      EXPECT_EQ(stats.candidates_dropped, reference_stats.candidates_dropped);
      EXPECT_GT(stats.vertices_aggregated, prev_aggregated) << "t=" << t;
    }
    prev_aggregated = stats.vertices_aggregated;
  }
  EXPECT_GT(reference.size(), 0u);
}

TEST(MbetStatsTest, EnumStatsMergeAddsFields) {
  // Every row of the counter table merges by its rule: sum rows add, max
  // rows keep the larger value whichever side holds it.
  EnumStats a, b;
  for (size_t i = 0; i < std::size(kEnumStatsFields); ++i) {
    a.*kEnumStatsFields[i].member = 10 * (i + 1);
    b.*kEnumStatsFields[i].member = i % 2 == 0 ? 7 : 10 * (i + 1) + 5;
  }
  EnumStats merged = a;
  merged.MergeFrom(b);
  size_t max_rows = 0;
  for (const EnumStatsField& field : kEnumStatsFields) {
    const uint64_t mine = a.*field.member;
    const uint64_t theirs = b.*field.member;
    if (field.merge == StatMerge::kSum) {
      EXPECT_EQ(merged.*field.member, mine + theirs) << field.name;
    } else {
      ++max_rows;
      EXPECT_EQ(merged.*field.member, std::max(mine, theirs)) << field.name;
    }
  }
  EXPECT_GT(max_rows, 0u);
  EXPECT_EQ(a.nodes_expanded + b.nodes_expanded, merged.nodes_expanded);
  EXPECT_EQ(std::max(a.peak_charged_bytes, b.peak_charged_bytes),
            merged.peak_charged_bytes);
}

}  // namespace
}  // namespace mbe
