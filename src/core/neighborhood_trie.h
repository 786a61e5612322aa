#ifndef PMBE_CORE_NEIGHBORHOOD_TRIE_H_
#define PMBE_CORE_NEIGHBORHOOD_TRIE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/set_ops.h"
#include "util/common.h"

/// \file
/// The prefix tree at the heart of the reconstruction (DESIGN.md §3.2).
///
/// A NeighborhoodTrie stores the *local neighborhoods* (sorted subsets of
/// the current L) of all live candidate/forbidden groups at one enumeration
/// node. Groups whose neighborhoods share a prefix under the canonical
/// left-side order share a path. Given a new sub-biclique left set L'
/// (presented as a membership mask), a single linear pass over the trie
/// computes |loc(g) ∩ L'| for every group simultaneously — each trie node
/// is probed once, so vertices on shared prefixes are probed once instead
/// of once per group. This is the batch "node checking" acceleration
/// attributed to the prefix-tree approach.
///
/// Layout: nodes are stored in DFS preorder, each carrying (vertex, depth)
/// packed into one word. The classification pass keeps a per-depth running
/// count in a small stack that stays in L1, so each probe touches exactly
/// one sequential stream plus the membership mask — the same per-probe
/// cost as a direct list scan, at a fraction of the probes.

namespace mbe {

/// Arena-backed prefix tree over sorted vertex lists.
class NeighborhoodTrie {
 public:
  NeighborhoodTrie() = default;

  /// Rebuilds the trie from `lists`, one sorted vertex list per group,
  /// visited in the order given by `order` (group indices). The visited
  /// sequence must be lexicographically non-decreasing — the builder
  /// shares exactly the common prefix of consecutive lists, which is the
  /// full shared path if and only if the order is lexicographic. Groups
  /// with identical lists share their terminal. Empty lists always
  /// classify to 0 and may appear anywhere in the order (an empty list is
  /// a prefix of everything, so it never breaks the ordering invariant and
  /// is skipped without disturbing the running path).
  void Build(std::span<const std::span<const VertexId>> lists,
             std::span<const uint32_t> order);

  /// Convenience overload computing the lexicographic order internally.
  void Build(std::span<const std::span<const VertexId>> lists);

  /// Builds from lists in arbitrary order via most-significant-digit
  /// bucketing: groups are partitioned recursively by their element at each
  /// depth, so shared prefixes are discovered with single-integer
  /// comparisons instead of full lexicographic compares. This is the
  /// builder the enumerator uses (its group lists arrive unsorted).
  void BuildUnordered(std::span<const std::span<const VertexId>> lists);

  /// Computes counts[g] = |list(g) ∩ mask| for every group in one linear
  /// pass. `counts` is resized to the number of groups. Returns the number
  /// of trie nodes probed (for the stats counters).
  size_t ClassifyAll(const MembershipMask& mask,
                     std::vector<uint32_t>* counts) const;

  /// Number of trie nodes.
  size_t num_nodes() const { return packed_.size(); }

  /// Number of groups the trie was built over.
  size_t num_groups() const { return next_group_.size(); }

  /// Sum of list lengths the trie was built over (what an unshared scan
  /// would probe).
  size_t total_list_length() const { return total_length_; }

  /// Bytes held by the arenas (for memory accounting).
  size_t MemoryBytes() const;

 private:
  static uint64_t Pack(VertexId vertex, uint32_t depth) {
    return static_cast<uint64_t>(depth) << 32 | vertex;
  }

  // Preorder node stream: low 32 bits = left vertex, high 32 bits = depth.
  std::vector<uint64_t> packed_;
  // Head of the group chain terminating at each node (-1 = none).
  std::vector<int32_t> first_group_;
  // Per group: next group sharing the same terminal (-1 = end).
  std::vector<int32_t> next_group_;
  size_t total_length_ = 0;
  uint32_t max_depth_ = 0;
  // Scratch reused across ClassifyAll calls (mutable: Classify is logically
  // const; one trie belongs to one enumeration worker).
  mutable std::vector<uint32_t> count_stack_;
};

}  // namespace mbe

#endif  // PMBE_CORE_NEIGHBORHOOD_TRIE_H_
