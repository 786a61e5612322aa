#include "api/options.h"

#include <cmath>

namespace mbe {

namespace {

struct AlgorithmEntry {
  Algorithm algorithm;
  const char* flag;  ///< ParseAlgorithm name
  const char* name;  ///< AlgorithmName display name
};

constexpr AlgorithmEntry kAlgorithms[] = {
    {Algorithm::kMbet, "mbet", "MBET"},
    {Algorithm::kMbetM, "mbetm", "MBETM"},
    {Algorithm::kMineLmbc, "minelmbc", "MineLMBC"},
    {Algorithm::kMbea, "mbea", "MBEA"},
    {Algorithm::kImbea, "imbea", "iMBEA"},
    {Algorithm::kBbk, "bbk", "BBK"},
};

}  // namespace

util::Status ParseAlgorithm(const std::string& name, Algorithm* algorithm) {
  PMBE_CHECK(algorithm != nullptr);
  std::string expected;
  for (const AlgorithmEntry& entry : kAlgorithms) {
    if (name == entry.flag) {
      *algorithm = entry.algorithm;
      return util::Status::Ok();
    }
    if (!expected.empty()) expected += " | ";
    expected += entry.flag;
  }
  return util::Status::InvalidArgument("unknown algorithm '" + name +
                                       "' (expected " + expected + ")");
}

util::Status AlgorithmFromValue(uint32_t value, Algorithm* algorithm) {
  PMBE_CHECK(algorithm != nullptr);
  for (const AlgorithmEntry& entry : kAlgorithms) {
    if (value == static_cast<uint32_t>(entry.algorithm)) {
      *algorithm = entry.algorithm;
      return util::Status::Ok();
    }
  }
  return util::Status::InvalidArgument("unknown algorithm " +
                                       std::to_string(value));
}

const char* AlgorithmName(Algorithm algorithm) {
  for (const AlgorithmEntry& entry : kAlgorithms) {
    if (entry.algorithm == algorithm) return entry.name;
  }
  return "?";
}

bool SupportsParallel(Algorithm algorithm) {
  return algorithm != Algorithm::kMineLmbc;
}

bool FiltersBySize(Algorithm algorithm) {
  return algorithm == Algorithm::kMbet || algorithm == Algorithm::kMbetM;
}

GraphOptions GraphOptionsForRun(GraphOptions graph, const RunOptions& run) {
  graph.core_reduce = graph.core_reduce && FiltersBySize(run.algorithm);
  graph.min_left = run.mbet.min_left;
  graph.min_right = run.mbet.min_right;
  return graph;
}

util::Status GraphOptions::Validate() const {
  if (min_left == 0 || min_right == 0) {
    return util::Status::InvalidArgument(
        "GraphOptions::min_left / min_right are minimum side sizes and must "
        "be >= 1 (got 0)");
  }
  return util::Status::Ok();
}

util::Status RunOptions::Validate() const {
  if (threads == 0) {
    return util::Status::InvalidArgument("threads must be >= 1 (got 0)");
  }
  if (threads > 1 && !SupportsParallel(algorithm)) {
    return util::Status::InvalidArgument(
        std::string("algorithm ") + AlgorithmName(algorithm) +
        " does not support threads > 1");
  }
  if (mbet.min_left == 0 || mbet.min_right == 0) {
    return util::Status::InvalidArgument(
        "mbet.min_left / mbet.min_right are minimum side sizes and must be "
        ">= 1 (got 0)");
  }
  if (mbet.trie_min_groups == 0) {
    return util::Status::InvalidArgument(
        "mbet.trie_min_groups must be >= 1 (1 builds a trie everywhere)");
  }
  if (threads > 1 && mbet.best_edges != nullptr) {
    return util::Status::InvalidArgument(
        "mbet.best_edges (branch-and-bound watermark) is unsynchronized "
        "state and requires threads == 1");
  }
  if (!(control.deadline_seconds >= 0)) {
    return util::Status::InvalidArgument(
        "control.deadline_seconds must be >= 0 (0 disables the deadline)");
  }
  if (std::isnan(control.progress_every_s)) {
    return util::Status::InvalidArgument(
        "control.progress_every_s must not be NaN");
  }
  if (!(watchdog_stall_seconds >= 0)) {  // negatives and NaN
    return util::Status::InvalidArgument(
        "watchdog_stall_seconds must be >= 0 (0 disables the watchdog)");
  }
  const bool durable = checkpoint.enabled() || checkpoint.resume ||
                       checkpoint.shard_count != 1 ||
                       checkpoint.checkpoint_stop != nullptr;
  if (durable) {
    if (!SupportsParallel(algorithm)) {
      return util::Status::InvalidArgument(
          std::string("algorithm ") + AlgorithmName(algorithm) +
          " does not support the per-vertex subtree decomposition, which "
          "checkpointing is built on");
    }
    if (!(checkpoint.every_s >= 0)) {  // negatives and NaN
      return util::Status::InvalidArgument(
          "checkpoint.every_s must be >= 0 (0 = final snapshot only)");
    }
  }
  if (checkpoint.shard_count == 0) {
    return util::Status::InvalidArgument(
        "checkpoint.shard_count must be >= 1");
  }
  if (checkpoint.shard_index >= checkpoint.shard_count) {
    return util::Status::InvalidArgument(
        "checkpoint.shard_index must be < checkpoint.shard_count");
  }
  if ((checkpoint.resume || checkpoint.shard_count > 1 ||
       checkpoint.checkpoint_stop != nullptr) &&
      !checkpoint.enabled()) {
    return util::Status::InvalidArgument(
        "checkpoint.resume, sharded runs, and the checkpoint-stop token "
        "all need checkpoint.path (resume reads it; a stopped or sharded "
        "run's state is only reachable through its snapshot file)");
  }
  return util::Status::Ok();
}

}  // namespace mbe
