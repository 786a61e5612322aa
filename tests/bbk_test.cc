// Engine-level tests for BBK (engines/bbk.h): oracle-checked output,
// digest identity with MBET across graph families and set-layer configs,
// the fixed candidate order (no per-node re-sort), and split-at-pickup
// shard equivalence — the property the work-stealing driver relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/mbe.h"
#include "core/verify.h"
#include "engines/bbk.h"
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

TEST(BbkEngineTest, SetLayerConfigsAreOutputInvariant) {
  // bitmap_density only swaps the L' representation; forced bitmaps
  // (0.0) and disabled bitmaps (2.0) must produce the default's digest.
  const BipartiteGraph graph = gen::PowerLaw(250, 180, 1400, 0.85, 0.8, 70);
  BbkEnumerator def(graph);
  FingerprintSink a;
  def.EnumerateAll(&a);

  BbkEnumerator forced(graph, BbkOptions{.bitmap_density = 0.0});
  FingerprintSink b;
  forced.EnumerateAll(&b);
  EXPECT_EQ(b.Digest(), a.Digest());
  EXPECT_GT(forced.stats().bitmap_conversions, 0u);

  BbkEnumerator lists(graph, BbkOptions{.bitmap_density = 2.0});
  FingerprintSink c;
  lists.EnumerateAll(&c);
  EXPECT_EQ(c.Digest(), a.Digest());
  EXPECT_EQ(lists.stats().bitmap_conversions, 0u);
}

TEST(BbkEngineTest, ShardUnionEqualsWholeSubtree) {
  // Split-at-pickup: for every subtree and shard count, the union of the
  // shards' emissions must be digest-identical to the unsplit subtree.
  // (Skipped candidates are appended to Q; a Q entry with an empty clipped
  // local can never flip a maximality verdict, so over-approximating Q on
  // the non-owned positions is safe — this is the property under test.)
  const BipartiteGraph graph = gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21);
  BbkEnumerator engine(graph);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    FingerprintSink whole;
    engine.EnumerateSubtree(v, &whole);
    for (uint32_t num_shards : {2u, 3u, 8u}) {
      FingerprintSink split;
      for (uint32_t shard = 0; shard < num_shards; ++shard) {
        engine.EnumerateShard(v, shard, num_shards, &split);
      }
      EXPECT_EQ(split.Digest(), whole.Digest())
          << "v=" << v << " shards=" << num_shards;
      EXPECT_EQ(split.count(), whole.count());
    }
  }
}

TEST(BbkEngineTest, SplitHintRespectsBounds) {
  const BipartiteGraph graph = gen::HubBlock(50, 35, 50, 100, 0.4, 0.03, 21);
  BbkEnumerator engine(graph);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    const uint32_t k = engine.SplitHint(v, /*max_shards=*/8, /*min_work=*/1);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 8u);
    EXPECT_EQ(engine.SplitHint(v, /*max_shards=*/1, /*min_work=*/1), 1u);
    // An enormous work floor suppresses splitting entirely.
    EXPECT_EQ(engine.SplitHint(v, 8, /*min_work=*/~0ull), 1u);
  }
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
