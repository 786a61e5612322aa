#ifndef PMBE_CORE_SUBTREE_H_
#define PMBE_CORE_SUBTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/common.h"

/// \file
/// Root construction for the per-vertex subtree decomposition.
///
/// The enumeration space is partitioned by the first (smallest, under the
/// preprocessed right-side order) R-vertex of each maximal biclique:
/// subtree(v) enumerates exactly the maximal bicliques whose minimum
/// R-vertex is v. Its root has L0 = N(v); candidates are the two-hop
/// neighbors after v; two-hop neighbors before v act as forbidden (Q)
/// witnesses. This decomposition is what both the sequential drivers and
/// the parallel scheduler fan out over.
/// Roots are built from a count and a fill pass over the wedges v–u–w
/// (docs/SET_REPRESENTATION.md "Local-universe renumbering").

namespace mbe {

/// One root entry: a two-hop neighbor of the subtree's seed vertex. Its
/// local neighborhood lives in the shared `SubtreeRoot::locs` arena
/// (offset/length), so rebuilding a root reuses one flat buffer instead of
/// allocating a vector per entry. Entries are ordered by ascending `w`.
struct RootEntry {
  VertexId w = kInvalidVertex;
  bool forbidden = false;           ///< true when w precedes the seed
  uint32_t loc_off = 0;             ///< offset into SubtreeRoot::locs
  uint32_t loc_len = 0;             ///< |N(w) ∩ L0|
};

/// Root state of subtree(v).
struct SubtreeRoot {
  VertexId seed = kInvalidVertex;
  std::vector<VertexId> l0;          ///< N(v)
  std::vector<RootEntry> entries;    ///< two-hop neighbors with locals
  std::vector<VertexId> locs;        ///< arena: all entry locals

  /// The local neighborhood N(entry.w) ∩ L0 of `entry`, sorted, in local
  /// ids: local id x is the global vertex l0[x].
  std::span<const VertexId> LocOf(const RootEntry& entry) const {
    return {locs.data() + entry.loc_off, entry.loc_len};
  }
};

/// Reusable scratch for building subtree roots.
class SubtreeBuilder {
 public:
  explicit SubtreeBuilder(const BipartiteGraph& graph);

  /// Builds the root of subtree(v). Returns false when the subtree is
  /// trivially empty or pruned without any enumeration:
  ///  * deg(v) == 0 (no biclique has v with nonempty L), or
  ///  * some forbidden w dominates L0 (L0 ⊆ N(w)); then every biclique of
  ///    the subtree is enumerated in an earlier subtree. `*pruned` is set
  ///    to distinguish this case for the stats counters.
  ///
  /// On success, entries with empty locals are already dropped and entries
  /// whose local equals L0 are reported via `*absorbed` (they belong in R0)
  /// rather than in `root->entries`.
  bool Build(VertexId v, SubtreeRoot* root, std::vector<VertexId>* absorbed,
             bool* pruned);

 private:
  const BipartiteGraph& graph_;
  /// Per right vertex: |N(w) ∩ L0| in the count pass, then the entry's
  /// arena cursor in the fill pass. All zero outside Build.
  std::vector<uint32_t> slot_;
  std::vector<uint64_t> mark_;  ///< bitmap over right ids, zero outside Build
  std::vector<VertexId> n2_;    ///< N2(v) ∪ {v}, sorted after the count pass
};

}  // namespace mbe

#endif  // PMBE_CORE_SUBTREE_H_
