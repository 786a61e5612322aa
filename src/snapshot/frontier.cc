#include "snapshot/frontier.h"

#include <algorithm>

#include "util/common.h"

namespace mbe::snapshot {

namespace {

/// splitmix64 finalizer: the project's standard cheap mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a 64 over a byte range — the snapshot file's integrity checksum.
/// Not cryptographic; it catches the torn writes and bit flips a durable
/// file format must detect, cheaply.
uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A task word is well-formed iff its shard coordinates are: at least one
/// shard, shard index within bounds. Version 1 of the format also carries
/// the shard words of split subtrees (shard s of k > 1) that earlier
/// writers produced; they decode, and Restore refuses them
/// (EncodeTask, snapshot/frontier.h).
bool ValidTaskWord(uint64_t word) {
  const uint32_t shard = static_cast<uint32_t>((word >> 16) & 0xffff);
  const uint32_t num_shards = static_cast<uint32_t>(word & 0xffff);
  return num_shards >= 1 && shard < num_shards;
}

/// The vertex range check and the whole-subtree check Restore applies to
/// every task word of a snapshot.
util::Status CheckRestorableTask(uint64_t word, uint64_t graph_right) {
  if (!IsSubtreeTask(word)) {
    return util::Status::InvalidArgument(
        "snapshot holds a split-subtree task (shard " +
        std::to_string((word >> 16) & 0xffff) + " of " +
        std::to_string(word & 0xffff) +
        "); this version runs whole subtrees only and cannot resume it");
  }
  if (TaskVertex(word) >= graph_right) {
    return util::Status::InvalidArgument(
        "snapshot task references a vertex beyond the graph");
  }
  return util::Status::Ok();
}

/// Little-endian writer/reader mirroring serve/wire.cc. Kept local: the
/// wire codec is serve-layer (pmbe_serve) and this module sits below it.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}
  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }

 private:
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return bytes_[pos_++];
  }
  /// Strict bool: only 0 and 1 are valid (canonical encoding).
  bool Bool() {
    const uint8_t v = U8();
    if (v > 1) ok_ = false;
    return v != 0;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Shared invariant checks between EncodeSnapshot (refusing to write a
/// malformed snapshot) and DecodeSnapshot (refusing to accept one).
util::Status CheckInvariants(const FrontierSnapshot& snap) {
  if (snap.shard_count < 1 || snap.shard_index >= snap.shard_count) {
    return util::Status::CorruptData(
        "snapshot shard coordinates invalid: index " +
        std::to_string(snap.shard_index) + " of " +
        std::to_string(snap.shard_count));
  }
  if (snap.complete && !snap.pending.empty()) {
    return util::Status::CorruptData(
        "snapshot marked complete but has pending tasks");
  }
  uint64_t prev = 0;
  bool first = true;
  for (uint64_t word : snap.pending) {
    if (!ValidTaskWord(word)) {
      return util::Status::CorruptData("invalid pending task word");
    }
    if (!first && word <= prev) {
      return util::Status::CorruptData(
          "pending tasks not strictly ascending");
    }
    prev = word;
    first = false;
  }
  prev = 0;
  first = true;
  for (const CompletedTask& c : snap.completed) {
    if (!ValidTaskWord(c.task)) {
      return util::Status::CorruptData("invalid completed task word");
    }
    if (!first && c.task <= prev) {
      return util::Status::CorruptData(
          "completed tasks not strictly ascending");
    }
    prev = c.task;
    first = false;
  }
  // Both lists are sorted; a linear sweep finds any overlap.
  size_t i = 0, j = 0;
  while (i < snap.pending.size() && j < snap.completed.size()) {
    if (snap.pending[i] == snap.completed[j].task) {
      return util::Status::CorruptData(
          "task is both pending and completed");
    }
    if (snap.pending[i] < snap.completed[j].task) {
      ++i;
    } else {
      ++j;
    }
  }
  return util::Status::Ok();
}

}  // namespace

uint64_t GraphFingerprint(const BipartiteGraph& graph) {
  uint64_t h = Mix64(graph.num_left() * 0x9e3779b97f4a7c15ULL ^
                     graph.num_right());
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    uint64_t row = Mix64(uint64_t{v} + 0x517cc1b727220a95ULL);
    for (VertexId u : graph.RightNeighbors(v)) {
      row = Mix64(row ^ u);
    }
    // Commutative across rows would lose structure; chain them instead
    // (rows are visited in a fixed order, so the chain is deterministic).
    h = Mix64(h ^ row);
  }
  return h;
}

uint32_t ShardOfSeed(VertexId v, uint32_t shard_count) {
  PMBE_CHECK(shard_count >= 1);
  if (shard_count == 1) return 0;
  return static_cast<uint32_t>(Mix64(v) % shard_count);
}

util::Status EncodeSnapshot(const FrontierSnapshot& snap,
                            std::vector<uint8_t>* out) {
  PMBE_CHECK(out != nullptr);
  PMBE_RETURN_IF_ERROR(CheckInvariants(snap));
  std::vector<uint8_t> bytes;
  Writer w(&bytes);
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U8(snap.algorithm);
  w.U8(snap.complete ? 1 : 0);
  w.U32(snap.shard_index);
  w.U32(snap.shard_count);
  w.U64(snap.graph_left);
  w.U64(snap.graph_right);
  w.U64(snap.graph_edges);
  w.U64(snap.graph_hash);
  w.U64(snap.pending.size());
  for (uint64_t word : snap.pending) w.U64(word);
  w.U64(snap.completed.size());
  for (const CompletedTask& c : snap.completed) {
    w.U64(c.task);
    w.U64(c.digest.sum);
    w.U64(c.digest.xr);
    w.U64(c.digest.count);
  }
  w.U64(Fnv1a(bytes));
  out->insert(out->end(), bytes.begin(), bytes.end());
  return util::Status::Ok();
}

util::StatusOr<FrontierSnapshot> DecodeSnapshot(
    std::span<const uint8_t> bytes) {
  Reader r(bytes);
  if (r.U32() != kSnapshotMagic) {
    return util::Status::CorruptData(
        "not a frontier snapshot (bad magic)");
  }
  const uint32_t version = r.U32();
  if (!r.ok()) {
    return util::Status::CorruptData("truncated snapshot header");
  }
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  FrontierSnapshot snap;
  snap.algorithm = r.U8();
  snap.complete = r.Bool();
  snap.shard_index = r.U32();
  snap.shard_count = r.U32();
  snap.graph_left = r.U64();
  snap.graph_right = r.U64();
  snap.graph_edges = r.U64();
  snap.graph_hash = r.U64();

  const uint64_t pending_count = r.U64();
  // Each task is 8 bytes and the checksum needs 8 more: a count the
  // remaining bytes cannot hold is corrupt, checked before reserving.
  if (pending_count > kMaxSnapshotTasks ||
      !r.ok() || pending_count * 8 > r.remaining()) {
    return util::Status::CorruptData("pending task count out of range");
  }
  snap.pending.reserve(pending_count);
  for (uint64_t i = 0; i < pending_count; ++i) snap.pending.push_back(r.U64());

  const uint64_t completed_count = r.U64();
  if (completed_count > kMaxSnapshotTasks ||
      !r.ok() || completed_count * 32 > r.remaining()) {
    return util::Status::CorruptData("completed task count out of range");
  }
  snap.completed.reserve(completed_count);
  for (uint64_t i = 0; i < completed_count; ++i) {
    CompletedTask c;
    c.task = r.U64();
    c.digest.sum = r.U64();
    c.digest.xr = r.U64();
    c.digest.count = r.U64();
    snap.completed.push_back(c);
  }

  // Checksum covers every byte before it.
  const size_t body_end = r.pos();
  const uint64_t stored = r.U64();
  if (!r.ok()) {
    return util::Status::CorruptData("truncated snapshot");
  }
  if (!r.AtEnd()) {
    return util::Status::CorruptData("trailing bytes after snapshot");
  }
  if (stored != Fnv1a(bytes.subspan(0, body_end))) {
    return util::Status::CorruptData("snapshot checksum mismatch");
  }
  PMBE_RETURN_IF_ERROR(CheckInvariants(snap));
  return snap;
}

TaskFrontier::TaskFrontier(uint8_t algorithm, uint32_t shard_index,
                           uint32_t shard_count, const BipartiteGraph& graph)
    : algorithm_(algorithm),
      shard_index_(shard_index),
      shard_count_(shard_count),
      graph_left_(graph.num_left()),
      graph_right_(graph.num_right()),
      graph_edges_(graph.num_edges()),
      graph_hash_(GraphFingerprint(graph)) {
  PMBE_CHECK(shard_count_ >= 1 && shard_index_ < shard_count_);
}

void TaskFrontier::AddPending(uint64_t task) {
  PMBE_CHECK(IsSubtreeTask(task));
  std::lock_guard<std::mutex> lock(mu_);
  PMBE_CHECK(completed_.find(task) == completed_.end());
  PMBE_CHECK(live_.insert(task).second);
}

util::Status TaskFrontier::Restore(const FrontierSnapshot& snap) {
  if (snap.algorithm != algorithm_) {
    return util::Status::InvalidArgument(
        "snapshot was taken with a different algorithm (id " +
        std::to_string(snap.algorithm) + ", resuming with id " +
        std::to_string(algorithm_) + ")");
  }
  if (snap.shard_index != shard_index_ || snap.shard_count != shard_count_) {
    return util::Status::InvalidArgument(
        "snapshot shard " + std::to_string(snap.shard_index) + "/" +
        std::to_string(snap.shard_count) + " does not match this run's " +
        std::to_string(shard_index_) + "/" + std::to_string(shard_count_));
  }
  if (snap.graph_left != graph_left_ || snap.graph_right != graph_right_ ||
      snap.graph_edges != graph_edges_ || snap.graph_hash != graph_hash_) {
    return util::Status::InvalidArgument(
        "snapshot graph fingerprint does not match the resuming graph "
        "(different input file, preprocessing, or ordering)");
  }
  // The codec only validates task words structurally; the seed-vertex
  // range check needs the graph, so it lives here. Completed tasks get
  // the same checks: they never re-run, but their words feed the merged
  // digest and shard-merge bookkeeping. A split-subtree word in either
  // section refuses the whole snapshot, before any state changes: its
  // sibling shards cannot be run by a scheduler that only runs whole
  // subtrees, and resuming the rest would be a partial resume.
  for (uint64_t word : snap.pending) {
    PMBE_RETURN_IF_ERROR(CheckRestorableTask(word, graph_right_));
  }
  for (const CompletedTask& c : snap.completed) {
    PMBE_RETURN_IF_ERROR(CheckRestorableTask(c.task, graph_right_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
  completed_.clear();
  live_.insert(snap.pending.begin(), snap.pending.end());
  for (const CompletedTask& c : snap.completed) {
    completed_.emplace(c.task, c.digest);
  }
  return util::Status::Ok();
}

void TaskFrontier::MarkCompleted(uint64_t task, const TaskDigest& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  PMBE_CHECK(live_.erase(task) == 1);
  PMBE_CHECK(completed_.emplace(task, digest).second);
}

std::vector<uint64_t> TaskFrontier::PendingTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> tasks(live_.begin(), live_.end());
  std::sort(tasks.begin(), tasks.end());
  return tasks;
}

size_t TaskFrontier::pending_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t TaskFrontier::completed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_.size();
}

TaskDigest TaskFrontier::MergedDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  TaskDigest d;
  for (const auto& [task, digest] : completed_) d.Merge(digest);
  return d;
}

FrontierSnapshot TaskFrontier::BuildSnapshot() const {
  FrontierSnapshot snap;
  snap.algorithm = algorithm_;
  snap.shard_index = shard_index_;
  snap.shard_count = shard_count_;
  snap.graph_left = graph_left_;
  snap.graph_right = graph_right_;
  snap.graph_edges = graph_edges_;
  snap.graph_hash = graph_hash_;
  std::lock_guard<std::mutex> lock(mu_);
  snap.pending.assign(live_.begin(), live_.end());
  std::sort(snap.pending.begin(), snap.pending.end());
  snap.completed.reserve(completed_.size());
  for (const auto& [task, digest] : completed_) {
    snap.completed.push_back(CompletedTask{task, digest});
  }
  std::sort(snap.completed.begin(), snap.completed.end(),
            [](const CompletedTask& a, const CompletedTask& b) {
              return a.task < b.task;
            });
  snap.complete = snap.pending.empty();
  return snap;
}

}  // namespace mbe::snapshot
