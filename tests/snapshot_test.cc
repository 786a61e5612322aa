// Tests of the durable task frontier (snapshot/frontier.h) and checkpoint
// files (snapshot/checkpoint.h): codec canonicity and totality, frontier
// lifecycle invariants, crash-safe file round-trips, shard merging, and
// the end-to-end checkpoint/resume digest-identity contract across
// algorithms and thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"

namespace mbe {
namespace {

using snapshot::CompletedTask;
using snapshot::DecodeSnapshot;
using snapshot::EncodeSnapshot;
using snapshot::FrontierSnapshot;
using snapshot::GraphFingerprint;
using snapshot::MergeSnapshots;
using snapshot::ReadSnapshotFile;
using snapshot::ShardOfSeed;
using snapshot::TaskDigest;
using snapshot::TaskFrontier;
using snapshot::WriteSnapshotFile;

BipartiteGraph MediumGraph() { return gen::ErdosRenyi(24, 24, 0.4, 7); }

// 2^40 - 2 maximal bicliques: no host finishes a full enumeration, which
// is exactly what a mid-run checkpoint stop needs.
BipartiteGraph WorstCaseGraph() { return gen::Crown(40); }

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A task word packed by hand as the version-1 format lays it out
// (v:[32,64) shard:[16,32) k:[0,16)), independent of EncodeTask. Earlier
// writers that split subtrees stored (v, s, k > 1) words; the codec still
// accepts them, and Restore refuses them.
uint64_t Word(VertexId v, uint32_t shard, uint32_t num_shards) {
  return uint64_t{v} << 32 | uint64_t{shard} << 16 | num_shards;
}

// The word every whole-subtree task has always been written as.
uint64_t Word(VertexId v) { return Word(v, 0, 1); }

// --- Task encoding ---------------------------------------------------------

TEST(TaskEncodingTest, RoundTrips) {
  for (const VertexId v : {VertexId{0}, VertexId{42}, VertexId{7},
                           VertexId{0xffffffffu}}) {
    const uint64_t word = EncodeTask(v);
    EXPECT_EQ(TaskVertex(word), v);
    EXPECT_TRUE(IsSubtreeTask(word));
  }
}

// The snapshot format persists encoded task words verbatim, making the
// packing an on-disk contract. Pin it at every 32-bit seed-vertex edge
// value: a task encodes as the unsplit (v, shard 0, 1 shard) word of the
// version-1 layout, and no word with any other shard coordinates passes
// for a whole subtree.
TEST(TaskEncodingTest, ExhaustiveAtShardBitsAndVertexBoundaries) {
  for (const VertexId v :
       {VertexId{0}, VertexId{1}, VertexId{0x7fffffffu},
        VertexId{0x80000000u}, VertexId{0xfffffffeu}, VertexId{0xffffffffu}}) {
    const uint64_t word = EncodeTask(v);
    ASSERT_EQ(word, uint64_t{v} << 32 | uint64_t{0} << 16 | 1);
    ASSERT_EQ(TaskVertex(word), v);
    const uint64_t base = uint64_t{v} << 32;
    for (uint32_t shard = 0; shard < 0xffff; ++shard) {
      ASSERT_FALSE(IsSubtreeTask(base | uint64_t{shard} << 16 | 0xffff));
      ASSERT_EQ(TaskVertex(base | uint64_t{shard} << 16 | 0xffff), v);
    }
    ASSERT_FALSE(IsSubtreeTask(base | uint64_t{1} << 16 | 1));
    ASSERT_FALSE(IsSubtreeTask(base));
  }
  // Distinctness at the packing seam: the vertex never aliases the shard
  // bits.
  EXPECT_NE(EncodeTask(1), EncodeTask(0) | uint64_t{1} << 16);
}

FrontierSnapshot SampleSnapshot() {
  FrontierSnapshot snap;
  snap.algorithm = 3;
  snap.complete = false;
  snap.shard_index = 1;
  snap.shard_count = 4;
  snap.graph_left = 24;
  snap.graph_right = 24;
  snap.graph_edges = 230;
  snap.graph_hash = 0x1234abcd5678ef00ULL;
  snap.pending = {Word(2), Word(5, 1, 3), Word(5, 2, 3)};
  snap.completed = {
      {Word(1), {0x1111, 0x2222, 3}},
      {Word(5, 0, 3), {0x3333, 0x4444, 7}},
  };
  return snap;
}

// --- Codec -----------------------------------------------------------------

TEST(SnapshotCodecTest, RoundTripIsCanonical) {
  const FrontierSnapshot snap = SampleSnapshot();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(snap, &bytes).ok());

  util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), snap);

  // Canonical: the decoded snapshot re-encodes to exactly the input bytes.
  std::vector<uint8_t> again;
  ASSERT_TRUE(EncodeSnapshot(decoded.value(), &again).ok());
  EXPECT_EQ(again, bytes);
}

TEST(SnapshotCodecTest, EmptyCompleteSnapshotRoundTrips) {
  FrontierSnapshot snap;
  snap.complete = true;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(snap, &bytes).ok());
  util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), snap);
}

TEST(SnapshotCodecTest, EveryTruncationFailsTyped) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(SampleSnapshot(), &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    util::StatusOr<FrontierSnapshot> decoded =
        DecodeSnapshot(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << len << " decoded";
    const util::StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == util::StatusCode::kCorruptData ||
                code == util::StatusCode::kInvalidArgument)
        << "len " << len << ": " << decoded.status().ToString();
  }
}

TEST(SnapshotCodecTest, VersionSkewIsInvalidArgumentNotCorruption) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(SampleSnapshot(), &bytes).ok());
  bytes[4] = 0x7f;  // version field follows the 4-byte magic
  util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, BadMagicIsCorruptData) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(SampleSnapshot(), &bytes).ok());
  bytes[0] ^= 0xff;
  util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kCorruptData);
}

TEST(SnapshotCodecTest, PayloadCorruptionTripsChecksum) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(SampleSnapshot(), &bytes).ok());
  // Flip one byte in every position past the version; whatever structural
  // check fires first, the decode must fail typed, never crash or
  // silently succeed with altered content.
  for (size_t i = 8; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(corrupt);
    if (decoded.ok()) {
      ADD_FAILURE() << "flipping byte " << i << " went unnoticed";
    } else {
      EXPECT_EQ(decoded.status().code(), util::StatusCode::kCorruptData)
          << "byte " << i;
    }
  }
}

TEST(SnapshotCodecTest, TrailingBytesRejected) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeSnapshot(SampleSnapshot(), &bytes).ok());
  bytes.push_back(0);
  util::StatusOr<FrontierSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kCorruptData);
}

TEST(SnapshotCodecTest, EncodeRejectsInvariantViolations) {
  std::vector<uint8_t> bytes;
  {
    FrontierSnapshot snap = SampleSnapshot();
    std::swap(snap.pending[0], snap.pending[1]);  // unsorted
    EXPECT_FALSE(EncodeSnapshot(snap, &bytes).ok());
  }
  {
    FrontierSnapshot snap = SampleSnapshot();
    snap.pending.push_back(snap.pending.back());  // duplicate
    EXPECT_FALSE(EncodeSnapshot(snap, &bytes).ok());
  }
  {
    FrontierSnapshot snap = SampleSnapshot();
    snap.pending.push_back(0);  // num_shards == 0: invalid task word
    EXPECT_FALSE(EncodeSnapshot(snap, &bytes).ok());
  }
  {
    FrontierSnapshot snap = SampleSnapshot();
    snap.completed.push_back({snap.pending[0], {}});  // overlap
    EXPECT_FALSE(EncodeSnapshot(snap, &bytes).ok());
  }
  {
    FrontierSnapshot snap = SampleSnapshot();
    snap.complete = true;  // complete with pending tasks
    EXPECT_FALSE(EncodeSnapshot(snap, &bytes).ok());
  }
  EXPECT_TRUE(bytes.empty());  // failed encodes leave the output untouched
}

// --- Frontier lifecycle ----------------------------------------------------

TEST(TaskFrontierTest, SeedCompleteLifecycle) {
  const BipartiteGraph graph = MediumGraph();
  TaskFrontier frontier(/*algorithm=*/0, 0, 1, graph);
  frontier.AddPending(EncodeTask(3));
  frontier.AddPending(EncodeTask(7));
  frontier.AddPending(EncodeTask(11));
  EXPECT_EQ(frontier.pending_count(), 3u);
  EXPECT_EQ(frontier.PendingTasks(),
            (std::vector<uint64_t>{Word(3), Word(7), Word(11)}));

  frontier.MarkCompleted(EncodeTask(7), {30, 40, 2});
  EXPECT_EQ(frontier.pending_count(), 2u);
  EXPECT_EQ(frontier.completed_count(), 1u);
  frontier.MarkCompleted(EncodeTask(3), {10, 20, 1});
  frontier.MarkCompleted(EncodeTask(11), {70, 80, 4});
  EXPECT_EQ(frontier.pending_count(), 0u);
  EXPECT_EQ(frontier.completed_count(), 3u);

  const TaskDigest merged = frontier.MergedDigest();
  EXPECT_EQ(merged.sum, 10u + 30 + 70);
  EXPECT_EQ(merged.xr, 20ull ^ 40 ^ 80);
  EXPECT_EQ(merged.count, 7u);

  const FrontierSnapshot snap = frontier.BuildSnapshot();
  EXPECT_TRUE(snap.complete);
  EXPECT_EQ(snap.completed.size(), 3u);
  EXPECT_EQ(snap.graph_hash, GraphFingerprint(graph));
}

TEST(TaskFrontierTest, MergedDigestIsCompletionOrderIndependent) {
  const BipartiteGraph graph = MediumGraph();
  TaskFrontier forward(0, 0, 1, graph);
  TaskFrontier backward(0, 0, 1, graph);
  for (VertexId v : {2u, 5u, 9u}) {
    forward.AddPending(EncodeTask(v));
    backward.AddPending(EncodeTask(v));
  }
  forward.MarkCompleted(EncodeTask(2), {40, 8, 2});
  forward.MarkCompleted(EncodeTask(5), {50, 4, 4});
  forward.MarkCompleted(EncodeTask(9), {7, 1, 1});
  backward.MarkCompleted(EncodeTask(9), {7, 1, 1});
  backward.MarkCompleted(EncodeTask(5), {50, 4, 4});
  backward.MarkCompleted(EncodeTask(2), {40, 8, 2});
  EXPECT_EQ(forward.MergedDigest(), backward.MergedDigest());
  EXPECT_EQ(forward.BuildSnapshot(), backward.BuildSnapshot());
}

TEST(TaskFrontierTest, RestoreRefusesSplitSubtreeWords) {
  // A (v, s, k > 1) word names one shard of a split subtree. The driver
  // only runs whole subtrees, so a snapshot holding one — pending or
  // completed — is refused outright, and the frontier keeps its state:
  // never a partial resume.
  const BipartiteGraph graph = MediumGraph();
  TaskFrontier frontier(0, 0, 1, graph);
  frontier.AddPending(EncodeTask(3));
  const FrontierSnapshot base = frontier.BuildSnapshot();
  {
    FrontierSnapshot snap = base;
    snap.pending.push_back(Word(5, 1, 2));
    EXPECT_EQ(frontier.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    FrontierSnapshot snap = base;
    snap.completed.push_back({Word(5, 0, 2), {1, 1, 1}});
    EXPECT_EQ(frontier.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(frontier.PendingTasks(), std::vector<uint64_t>{Word(3)});
  EXPECT_EQ(frontier.completed_count(), 0u);

  // The same refusal through a snapshot file and a resuming run: the
  // codec accepts the version-1 word, the resume is refused before any
  // worker starts, and nothing is emitted.
  const std::string path = TempPath("split-word.pmbf");
  RunOptions options;
  options.checkpoint.path = path;
  options.checkpoint.every_s = 3600;
  std::remove(path.c_str());
  CountSink first;
  options.control.max_results = 1;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &first, nullptr).ok());
  util::StatusOr<FrontierSnapshot> written = ReadSnapshotFile(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  FrontierSnapshot forged = written.value();
  ASSERT_FALSE(forged.pending.empty());
  const VertexId v = static_cast<VertexId>(forged.pending.back() >> 32);
  forged.pending.back() = Word(v, 0, 2);
  forged.pending.push_back(Word(v, 1, 2));
  ASSERT_TRUE(WriteSnapshotFile(path, forged).ok());
  options.control.max_results = 0;
  options.checkpoint.resume = true;
  CountSink resumed;
  EXPECT_EQ(Enumerate(graph, GraphOptions(), options, &resumed, nullptr).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(resumed.count(), 0u);
  std::remove(path.c_str());
}

TEST(TaskFrontierTest, RestoreRejectsMismatchedHeader) {
  const BipartiteGraph graph = MediumGraph();
  TaskFrontier frontier(0, 0, 1, graph);
  frontier.AddPending(Word(3));
  FrontierSnapshot snap = frontier.BuildSnapshot();

  {
    TaskFrontier other(/*algorithm=*/1, 0, 1, graph);
    EXPECT_EQ(other.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    const BipartiteGraph different = gen::ErdosRenyi(24, 24, 0.4, 8);
    TaskFrontier other(0, 0, 1, different);
    EXPECT_EQ(other.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    TaskFrontier same(0, 0, 1, graph);
    EXPECT_TRUE(same.Restore(snap).ok());
    EXPECT_EQ(same.pending_count(), 1u);
  }
}

TEST(TaskFrontierTest, RestoreRejectsTasksBeyondTheGraph) {
  // The codec validates task words structurally; the seed-vertex range
  // check needs the graph and lives in Restore — for pending *and*
  // completed tasks (a forged completed word with a valid checksum must
  // not slip into the digest bookkeeping).
  const BipartiteGraph graph = MediumGraph();  // 24 right vertices
  TaskFrontier frontier(0, 0, 1, graph);
  frontier.AddPending(Word(3));
  const FrontierSnapshot base = frontier.BuildSnapshot();

  {
    FrontierSnapshot snap = base;
    snap.pending.push_back(Word(24));  // out of range
    TaskFrontier other(0, 0, 1, graph);
    EXPECT_EQ(other.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    FrontierSnapshot snap = base;
    snap.completed.push_back({Word(24), {1, 1, 1}});  // out of range
    TaskFrontier other(0, 0, 1, graph);
    EXPECT_EQ(other.Restore(snap).code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(TaskFrontierTest, GraphFingerprintDistinguishesGraphs) {
  EXPECT_EQ(GraphFingerprint(MediumGraph()), GraphFingerprint(MediumGraph()));
  EXPECT_NE(GraphFingerprint(MediumGraph()),
            GraphFingerprint(gen::ErdosRenyi(24, 24, 0.4, 8)));
}

TEST(TaskFrontierTest, ShardOfSeedPartitionsAllSeeds) {
  std::vector<uint64_t> per_shard(4, 0);
  for (VertexId v = 0; v < 1000; ++v) {
    const uint32_t s = ShardOfSeed(v, 4);
    ASSERT_LT(s, 4u);
    ++per_shard[s];
  }
  // splitmix64 mixing spreads consecutive ids roughly evenly.
  for (uint64_t n : per_shard) EXPECT_GT(n, 150u);
}

// --- Snapshot files --------------------------------------------------------

TEST(SnapshotFileTest, WriteReadRoundTripAndOverwrite) {
  const std::string path = TempPath("roundtrip.pmbf");
  const FrontierSnapshot snap = SampleSnapshot();
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  util::StatusOr<FrontierSnapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), snap);

  // Overwrite via the same tmp+rename path.
  FrontierSnapshot second = snap;
  second.pending.push_back(Word(9));
  ASSERT_TRUE(WriteSnapshotFile(path, second).ok());
  read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), second);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileIsIoError) {
  util::StatusOr<FrontierSnapshot> read =
      ReadSnapshotFile(TempPath("does-not-exist.pmbf"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kIoError);
}

FrontierSnapshot CompleteShard(uint32_t index, uint32_t count,
                               std::vector<CompletedTask> completed) {
  FrontierSnapshot snap;
  snap.algorithm = 0;
  snap.complete = true;
  snap.shard_index = index;
  snap.shard_count = count;
  snap.graph_left = 24;
  snap.graph_right = 24;
  snap.graph_edges = 230;
  snap.graph_hash = 42;
  snap.completed = std::move(completed);
  return snap;
}

TEST(SnapshotMergeTest, MergesDisjointCompleteShards) {
  const FrontierSnapshot a =
      CompleteShard(0, 2, {{Word(1), {1, 2, 1}}});
  const FrontierSnapshot b =
      CompleteShard(1, 2, {{Word(2), {3, 4, 1}}});
  const std::vector<FrontierSnapshot> shards = {b, a};  // any order
  util::StatusOr<FrontierSnapshot> merged = MergeSnapshots(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.value().complete);
  EXPECT_EQ(merged.value().shard_count, 1u);
  EXPECT_EQ(merged.value().completed.size(), 2u);
  const TaskDigest d = merged.value().MergedDigest();
  EXPECT_EQ(d.sum, 4u);
  EXPECT_EQ(d.xr, 2ull ^ 4);
  EXPECT_EQ(d.count, 2u);
}

TEST(SnapshotMergeTest, RejectsIncompleteDuplicateAndMismatchedShards) {
  {
    FrontierSnapshot incomplete = CompleteShard(0, 2, {});
    incomplete.complete = false;
    incomplete.pending = {Word(1)};
    const std::vector<FrontierSnapshot> shards = {incomplete,
                                                  CompleteShard(1, 2, {})};
    EXPECT_EQ(MergeSnapshots(shards).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    const std::vector<FrontierSnapshot> shards = {CompleteShard(0, 2, {}),
                                                  CompleteShard(0, 2, {})};
    EXPECT_FALSE(MergeSnapshots(shards).ok());  // duplicate index
  }
  {
    const std::vector<FrontierSnapshot> shards = {CompleteShard(0, 2, {})};
    EXPECT_FALSE(MergeSnapshots(shards).ok());  // missing shard 1
  }
  {
    FrontierSnapshot other_graph = CompleteShard(1, 2, {});
    other_graph.graph_hash = 43;
    const std::vector<FrontierSnapshot> shards = {CompleteShard(0, 2, {}),
                                                  other_graph};
    EXPECT_FALSE(MergeSnapshots(shards).ok());
  }
  {
    // The same task completed in two shards: corruption, not config error.
    const std::vector<FrontierSnapshot> shards = {
        CompleteShard(0, 2, {{Word(1), {1, 2, 1}}}),
        CompleteShard(1, 2, {{Word(1), {1, 2, 1}}})};
    EXPECT_EQ(MergeSnapshots(shards).status().code(),
              util::StatusCode::kCorruptData);
  }
}

// --- End-to-end checkpoint / resume ----------------------------------------

struct DurableRun {
  uint64_t digest = 0;
  uint64_t completed = 0;
  uint64_t pending = 0;
  uint64_t emitted = 0;
  Termination termination = Termination::kComplete;
};

DurableRun RunDurable(const BipartiteGraph& graph, Algorithm algorithm,
                      unsigned threads, const std::string& path,
                      bool resume = false) {
  // Fresh durable runs refuse to overwrite an existing snapshot; clear
  // any leftover from an earlier (possibly crashed) test run.
  if (!resume) std::remove(path.c_str());
  RunOptions options;
  options.algorithm = algorithm;
  options.threads = threads;
  options.checkpoint.path = path;
  options.checkpoint.resume = resume;
  options.checkpoint.every_s = 3600;  // only the final snapshot
  CountSink sink;
  RunResult run;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, &run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return {run.frontier_digest, run.frontier_completed, run.frontier_pending,
          run.results_emitted, run.termination};
}

TEST(CheckpointResumeTest, DigestIdenticalAcrossAlgorithmsAndThreads) {
  const BipartiteGraph graph = MediumGraph();
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbea, Algorithm::kImbea,
        Algorithm::kBbk}) {
    uint64_t reference_digest = 0;
    uint64_t reference_count = 0;
    for (unsigned threads : {1u, 4u}) {
      const std::string path = TempPath("digest.pmbf");
      const DurableRun run = RunDurable(graph, algorithm, threads, path);
      EXPECT_EQ(run.termination, Termination::kComplete);
      EXPECT_EQ(run.pending, 0u);
      EXPECT_GT(run.emitted, 0u);
      if (reference_digest == 0) {
        reference_digest = run.digest;
        reference_count = run.emitted;
      }
      // The frontier digest is independent of thread count and claim
      // order.
      EXPECT_EQ(run.digest, reference_digest)
          << AlgorithmName(algorithm) << " x" << threads;
      EXPECT_EQ(run.emitted, reference_count);

      // The final snapshot on disk carries the same digest.
      util::StatusOr<FrontierSnapshot> snap = ReadSnapshotFile(path);
      ASSERT_TRUE(snap.ok());
      EXPECT_TRUE(snap.value().complete);
      EXPECT_EQ(snap.value().MergedDigest().Value(), run.digest);
      std::remove(path.c_str());
    }
  }
}

TEST(CheckpointResumeTest, InterruptedRunResumesToReferenceDigest) {
  const BipartiteGraph graph = MediumGraph();
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbea, Algorithm::kImbea,
        Algorithm::kBbk}) {
    for (unsigned threads : {1u, 4u}) {
      const std::string ref_path = TempPath("ref.pmbf");
      const DurableRun reference =
          RunDurable(graph, algorithm, threads, ref_path);
      std::remove(ref_path.c_str());

      // Interrupt: a small result budget stops the run mid-enumeration;
      // truncated tasks stay pending in the final snapshot.
      const std::string path = TempPath("interrupted.pmbf");
      std::remove(path.c_str());
      RunOptions options;
      options.algorithm = algorithm;
      options.threads = threads;
      options.checkpoint.path = path;
      options.checkpoint.every_s = 3600;
      options.control.max_results = reference.emitted / 3 + 1;
      CountSink sink;
      RunResult run;
      ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
      EXPECT_EQ(run.termination, Termination::kBudget);
      EXPECT_GT(run.frontier_pending, 0u)
          << AlgorithmName(algorithm) << " x" << threads;

      // Resume without the budget: the merged digest must be bit-identical
      // to the uninterrupted run's — completed tasks were not re-run,
      // interrupted ones were re-run exactly once.
      const DurableRun resumed =
          RunDurable(graph, algorithm, threads, path, /*resume=*/true);
      EXPECT_EQ(resumed.termination, Termination::kComplete);
      EXPECT_EQ(resumed.pending, 0u);
      EXPECT_EQ(resumed.digest, reference.digest)
          << AlgorithmName(algorithm) << " x" << threads;
      std::remove(path.c_str());
    }
  }
}

TEST(CheckpointResumeTest, HandPackedUnsplitWordsResumeToReferenceDigest) {
  // Snapshot files written before subtree splitting was removed hold
  // whole-subtree words packed as (v, 0, 1). Rebuild an interrupted run's
  // snapshot from hand-packed words alone and resume it: the merged
  // digest must equal the uninterrupted run's.
  const BipartiteGraph graph = MediumGraph();
  for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kBbk}) {
    const std::string ref_path = TempPath("packed-ref.pmbf");
    const DurableRun reference = RunDurable(graph, algorithm, 2, ref_path);
    std::remove(ref_path.c_str());

    const std::string path = TempPath("packed.pmbf");
    std::remove(path.c_str());
    RunOptions options;
    options.algorithm = algorithm;
    options.threads = 2;
    options.checkpoint.path = path;
    options.checkpoint.every_s = 3600;
    options.control.max_results = reference.emitted / 2 + 1;
    CountSink sink;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
    ASSERT_EQ(run.termination, Termination::kBudget);

    util::StatusOr<FrontierSnapshot> written = ReadSnapshotFile(path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    FrontierSnapshot packed = written.value();
    ASSERT_FALSE(packed.pending.empty());
    for (uint64_t& word : packed.pending) {
      const VertexId v = static_cast<VertexId>(word >> 32);
      EXPECT_EQ(word, Word(v)) << "writer left the version-1 layout";
      word = Word(v);
    }
    for (CompletedTask& c : packed.completed) {
      const VertexId v = static_cast<VertexId>(c.task >> 32);
      EXPECT_EQ(c.task, Word(v)) << "writer left the version-1 layout";
      c.task = Word(v);
    }
    ASSERT_TRUE(WriteSnapshotFile(path, packed).ok());

    const DurableRun resumed =
        RunDurable(graph, algorithm, 2, path, /*resume=*/true);
    EXPECT_EQ(resumed.termination, Termination::kComplete);
    EXPECT_EQ(resumed.pending, 0u);
    EXPECT_EQ(resumed.digest, reference.digest) << AlgorithmName(algorithm);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResumeTest, ResumeOfCompleteSnapshotIsIdempotentNoOp) {
  const BipartiteGraph graph = MediumGraph();
  const std::string path = TempPath("idempotent.pmbf");
  const DurableRun first = RunDurable(graph, Algorithm::kMbet, 2, path);
  EXPECT_EQ(first.termination, Termination::kComplete);

  const DurableRun again =
      RunDurable(graph, Algorithm::kMbet, 2, path, /*resume=*/true);
  EXPECT_EQ(again.termination, Termination::kComplete);
  EXPECT_EQ(again.emitted, 0u);  // nothing re-enumerated, nothing re-emitted
  EXPECT_EQ(again.digest, first.digest);
  EXPECT_EQ(again.completed, first.completed);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, FreshRunRefusesToOverwriteExistingSnapshot) {
  // A durable run without resume must not clobber an existing snapshot —
  // its first periodic write would silently destroy a resumable state if
  // the user merely forgot --resume.
  const BipartiteGraph graph = MediumGraph();
  const std::string path = TempPath("overwrite.pmbf");
  const DurableRun first = RunDurable(graph, Algorithm::kMbet, 2, path);
  EXPECT_EQ(first.termination, Termination::kComplete);

  RunOptions options;
  options.algorithm = Algorithm::kMbet;
  options.threads = 2;
  options.checkpoint.path = path;
  options.checkpoint.every_s = 3600;
  CountSink sink;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, nullptr);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(sink.count(), 0u);

  // The refused run left the snapshot untouched and resumable.
  util::StatusOr<FrontierSnapshot> snap = ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap.value().complete);
  EXPECT_EQ(snap.value().MergedDigest().Value(), first.digest);
  std::remove(path.c_str());
}

/// Delivers the first `limit` bicliques, then fails every emission:
/// models a downstream sink (full disk, closed pipe) dying mid-run.
class FailAfterSink : public ResultSink {
 public:
  explicit FailAfterSink(uint64_t limit) : limit_(limit) {}

  void Emit(std::span<const VertexId>, std::span<const VertexId>) override {
    if (delivered_.fetch_add(1, std::memory_order_relaxed) >= limit_) {
      delivered_.fetch_sub(1, std::memory_order_relaxed);
      throw std::runtime_error("injected sink failure");
    }
  }

  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t limit_;
  std::atomic<uint64_t> delivered_{0};
};

TEST(CheckpointResumeTest, SnapshotNeverCompletesUndeliveredTasks) {
  // The flush-before-commit barrier: a task may be recorded completed
  // only after its buffered results reached the downstream sink —
  // otherwise a snapshot could claim a task done while its bicliques sit
  // in a worker's volatile buffer, and a SIGKILL before the next flush
  // would lose them permanently (resume never re-runs completed tasks).
  // Pin it with a sink that dies mid-run: the completed-task digests in
  // the final snapshot must never count more bicliques than the sink
  // actually accepted.
  const BipartiteGraph graph = MediumGraph();
  const std::string ref_path = TempPath("barrier-ref.pmbf");
  const DurableRun reference =
      RunDurable(graph, Algorithm::kMbet, 4, ref_path);
  std::remove(ref_path.c_str());
  ASSERT_GT(reference.emitted, 2u);

  const std::string path = TempPath("barrier.pmbf");
  std::remove(path.c_str());
  RunOptions options;
  options.algorithm = Algorithm::kMbet;
  options.threads = 4;
  options.checkpoint.path = path;
  options.checkpoint.every_s = 3600;
  FailAfterSink sink(reference.emitted / 2 + 1);
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kInternal);

  util::StatusOr<FrontierSnapshot> snap = ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap.value().complete);
  EXPECT_GT(snap.value().pending.size(), 0u);
  EXPECT_LE(snap.value().MergedDigest().count, sink.delivered());
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ResumeRejectsDifferentGraphOrAlgorithm) {
  const std::string path = TempPath("mismatch.pmbf");
  RunDurable(MediumGraph(), Algorithm::kMbet, 1, path);

  {
    RunOptions options;
    options.algorithm = Algorithm::kMbet;
    options.checkpoint.path = path;
    options.checkpoint.resume = true;
    CountSink sink;
    const util::Status status =
        Enumerate(gen::ErdosRenyi(24, 24, 0.4, 8), GraphOptions(), options,
                  &sink, nullptr);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(sink.count(), 0u);
  }
  {
    RunOptions options;
    options.algorithm = Algorithm::kImbea;
    options.checkpoint.path = path;
    options.checkpoint.resume = true;
    CountSink sink;
    const util::Status status =
        Enumerate(MediumGraph(), GraphOptions(), options, &sink, nullptr);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, CheckpointStopYieldsTypedTermination) {
  // The worst-case graph cannot finish within any test budget, so the
  // pre-set stop token is guaranteed to fire first (the checkpointer
  // polls it every ~20ms).
  const std::string path = TempPath("stop.pmbf");
  std::remove(path.c_str());
  std::atomic<bool> stop{true};
  RunOptions options;
  options.algorithm = Algorithm::kMbet;
  options.threads = 4;
  options.checkpoint.path = path;
  options.checkpoint.every_s = 3600;
  options.checkpoint.checkpoint_stop = &stop;
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kCheckpointed);
  EXPECT_GT(run.frontier_pending, 0u);

  // The final snapshot is on disk and resumable.
  util::StatusOr<FrontierSnapshot> snap = ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap.value().complete);
  EXPECT_GT(snap.value().pending.size(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, FourShardsMergeToSingleProcessDigest) {
  const BipartiteGraph graph = MediumGraph();
  const std::string ref_path = TempPath("shard-ref.pmbf");
  const DurableRun reference =
      RunDurable(graph, Algorithm::kMbet, 2, ref_path);
  std::remove(ref_path.c_str());

  std::vector<FrontierSnapshot> shards;
  uint64_t total_emitted = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    const std::string path =
        TempPath("shard-" + std::to_string(i) + ".pmbf");
    std::remove(path.c_str());
    RunOptions options;
    options.algorithm = Algorithm::kMbet;
    options.threads = 2;
    options.checkpoint.path = path;
    options.checkpoint.every_s = 3600;
    options.checkpoint.shard_index = i;
    options.checkpoint.shard_count = 4;
    CountSink sink;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
    EXPECT_EQ(run.termination, Termination::kComplete);
    total_emitted += run.results_emitted;
    util::StatusOr<FrontierSnapshot> snap = ReadSnapshotFile(path);
    ASSERT_TRUE(snap.ok());
    shards.push_back(snap.value());
    std::remove(path.c_str());
  }

  util::StatusOr<FrontierSnapshot> merged = MergeSnapshots(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().MergedDigest().Value(), reference.digest);
  EXPECT_EQ(total_emitted, reference.emitted);
}

TEST(CheckpointOptionsTest, ValidateRejectsIncoherentCheckpointing) {
  {
    RunOptions o;  // resume without a path
    o.checkpoint.resume = true;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;  // whole-graph algorithm cannot checkpoint
    o.algorithm = Algorithm::kMineLmbc;
    o.checkpoint.path = "x.pmbf";
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;  // shard coordinates out of range
    o.checkpoint.path = "x.pmbf";
    o.checkpoint.shard_index = 4;
    o.checkpoint.shard_count = 4;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;  // sharding without a snapshot path
    o.checkpoint.shard_count = 4;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;  // negative snapshot cadence
    o.checkpoint.path = "x.pmbf";
    o.checkpoint.every_s = -1;
    EXPECT_EQ(o.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    RunOptions o;  // 0 = final snapshot only — valid (matches the CLI's >= 0)
    o.checkpoint.path = "x.pmbf";
    o.checkpoint.every_s = 0;
    EXPECT_TRUE(o.Validate().ok());
  }
  {
    RunOptions o;  // a coherent durable configuration passes
    o.checkpoint.path = "x.pmbf";
    o.checkpoint.shard_index = 1;
    o.checkpoint.shard_count = 4;
    o.threads = 4;
    EXPECT_TRUE(o.Validate().ok());
  }
}

}  // namespace
}  // namespace mbe
