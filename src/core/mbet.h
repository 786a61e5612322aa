#ifndef PMBE_CORE_MBET_H_
#define PMBE_CORE_MBET_H_

#include <memory>
#include <vector>

#include "core/enum_context.h"
#include "core/enum_stats.h"
#include "core/neighborhood_trie.h"
#include "core/run_control.h"
#include "core/set_ops.h"
#include "core/sink.h"
#include "core/subtree.h"
#include "graph/bipartite_graph.h"

/// \file
/// MBET — the prefix-tree based maximal biclique enumerator (the core
/// contribution reconstructed from "Maximal Biclique Enumeration: A Prefix
/// Tree Based Approach", ICDE 2024; see DESIGN.md §3 for the reconstruction
/// notes).
///
/// Design summary:
///  * Per-vertex subtree decomposition (core/subtree.h); within a subtree
///    the algorithm runs the classic (L, R, C, Q) backtracking.
///  * Every live candidate/forbidden vertex keeps its *local neighborhood*
///    `loc(w) = N(w) ∩ L`. Vertices with identical locals are aggregated
///    into one **group** (they occur in exactly the same maximal bicliques
///    of the subtree).
///  * All groups of a node live in a **prefix tree** over their locals;
///    traversing a candidate classifies every group — absorbed into R',
///    surviving candidate, dropped, or maximality witness — in one linear
///    pass over the trie, probing shared prefixes once.
///  * Per-level state is arena-backed (one flat buffer for all locals, one
///    for all member lists); groups are plain metadata, so the hot loops
///    never allocate. Equal locals are found by one hash pass per level
///    that chains duplicate groups in place (see Aggregate).
///  * Each subtree runs in the local universe [0, |L0|) its root's
///    locals arrive in (core/subtree.h). Locals stay sorted lists: nodes
///    the trie does not take classify by scanning each group's list
///    against the membership mask of L' (docs/SET_REPRESENTATION.md).
///    Per-node scratch comes from an EnumContext arena instead of ad-hoc
///    vectors.
///  * `MbetOptions` exposes each technique as a switch for the ablation
///    experiments, plus the MBETM space-optimized mode which stores no
///    local lists and recomputes counts from the graph.
///
/// Thread-compatibility: one MbetEnumerator instance is single-threaded
/// state; the session pool creates one per worker over the shared graph.

namespace mbe {

/// Tuning and ablation switches for MbetEnumerator.
struct MbetOptions {
  /// Classify groups through the prefix tree (the headline technique).
  /// When false, classification scans each group's local list directly.
  bool use_trie = true;
  /// Merge candidates with identical local neighborhoods into groups.
  bool use_aggregation = true;
  /// Drop forbidden (Q) groups whose local neighborhood becomes empty.
  /// Disabling keeps them alive forever (ablation: Q-filtering benefit).
  bool prune_q = true;
  /// MBETM space mode: do not store local lists per node; recompute counts
  /// from graph adjacency. Forces use_trie = false.
  bool recompute_locals = false;
  /// Build the prefix tree only for nodes with at least this many
  /// candidate groups: one classification pass runs per candidate, so wide
  /// nodes amortize the build cost while narrow nodes classify directly.
  /// 1 forces a trie everywhere (sensitivity axis, see bench_s11).
  uint32_t trie_min_groups = 4;
  /// Ignored: MBET keeps its locals as sorted lists on every node
  /// (docs/SET_REPRESENTATION.md). Stays until a benchmark change stops
  /// setting it.
  double bitmap_density = 0.10;

  /// Size-constrained enumeration: only maximal bicliques (of the whole
  /// graph) with |L| >= min_left and |R| >= min_right are emitted, and the
  /// thresholds prune the search: a subtree whose L is already below
  /// min_left, or whose achievable |R| upper bound is below min_right, is
  /// never expanded. Defaults (1, 1) enumerate everything.
  uint32_t min_left = 1;
  uint32_t min_right = 1;

  /// Branch-and-bound hook for maximum-biclique search: when non-null, a
  /// subtree is pruned if |L'| * (upper bound on |R|) <= *best_edges.
  /// The caller raises the watermark from its sink as better bicliques
  /// arrive (see core/maximum_biclique.h). Pruned subtrees may contain
  /// maximal bicliques, so this must stay null for full enumeration.
  const uint64_t* best_edges = nullptr;
};

/// The prefix-tree based enumerator.
class MbetEnumerator {
 public:
  /// `graph` must outlive the enumerator. The right side of `graph` should
  /// already be relabeled into the desired enumeration order (see
  /// graph/ordering.h); the enumerator traverses right ids ascending.
  MbetEnumerator(const BipartiteGraph& graph, const MbetOptions& options);

  /// Enumerates every maximal biclique of the graph into `sink`.
  void EnumerateAll(ResultSink* sink);

  /// Enumerates the maximal bicliques whose minimum right vertex is `v`.
  /// The union over all v of EnumerateSubtree(v) is EnumerateAll; subtrees
  /// are independent, which is what the session pool exploits.
  void EnumerateSubtree(VertexId v, ResultSink* sink);

  const EnumStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EnumStats(); }

  /// Attaches run control: the enumerator polls `controller` once per
  /// node expansion (and per candidate traversal) and stops cooperatively
  /// when it trips. Pass nullptr to detach. Call before enumerating.
  void SetRunController(RunController* controller) {
    poller_.Attach(controller);
  }

 private:
  static constexpr uint32_t kNoGroup = ~0u;

  /// One candidate/forbidden equivalence class at an enumeration node.
  /// Pure metadata: the vertex data lives in the level arenas.
  struct Group {
    uint32_t loc_off = 0;   ///< offset into Level::locs
    uint32_t loc_len = 0;   ///< |loc| (valid even in MBETM mode)
    uint32_t mem_off = 0;   ///< offset into Level::members
    uint32_t mem_len = 0;   ///< number of member vertices (>= 1)
    uint64_t loc_hash = 0;  ///< order-dependent hash of loc
    bool forbidden = false; ///< Q-side group
    bool merged = false;    ///< Aggregate: chained onto an earlier group
    uint32_t next = kNoGroup;  ///< Aggregate: next group of the class
  };
  static_assert(sizeof(Group) == 32, "Group must stay 32 bytes");

  /// Reusable per-depth state (one per recursion level, reused across
  /// siblings).
  struct Level {
    std::vector<Group> groups;
    std::vector<VertexId> locs;     ///< arena: all locals, concatenated
    std::vector<VertexId> members;  ///< arena: all member lists
    std::vector<VertexId> l;        ///< this node's L (local ids; see below)
    std::vector<VertexId> r;        ///< this node's R
    NeighborhoodTrie trie;          ///< built over groups' locals
    bool trie_built = false;
    std::vector<uint32_t> counts;   ///< classification output buffer
    std::vector<uint32_t> order;    ///< candidate traversal order buffer
    std::vector<std::span<const VertexId>> lists;  ///< trie build scratch

    std::span<const VertexId> LocOf(const Group& g) const {
      return {locs.data() + g.loc_off, g.loc_len};
    }
    std::span<const VertexId> MembersOf(const Group& g) const {
      return {members.data() + g.mem_off, g.mem_len};
    }
  };

  Level& LevelAt(size_t depth);

  /// Combined cooperative stop poll: run controller, then the sink chain.
  bool Stopped(ResultSink* sink) {
    return poller_.ShouldStop(stats_) || sink->ShouldStop();
  }

  /// Expands the node stored at `levels_[depth]`.
  void Recurse(size_t depth, ResultSink* sink);

  /// Classifies all groups of `lvl` against the current lp_mask_:
  /// fills lvl.counts with |loc(g) ∩ L'|.
  void Classify(Level& lvl);

  /// Builds the child level at depth+1 from the parent's classification
  /// (child.l must already hold L'). `traversed` is the group being
  /// traversed; `absorbed_members` receives the members of absorbed
  /// candidate groups.
  Level& BuildChild(size_t depth, uint32_t traversed,
                    std::vector<VertexId>* absorbed_members);

  /// Merges `lvl`'s groups with equal locals and equal status into one
  /// group each, in one hash pass plus one compaction pass. Hits are
  /// confirmed on the full local lists, so every equal pair merges and no
  /// unequal pair does. Groups keep their first-occurrence order and every
  /// member list keeps its smallest member first (candidate traversal
  /// order keys on it). Requires the locs arena to be populated (also in
  /// MBETM mode, where the caller drops the arena afterwards).
  void Aggregate(Level* lvl);

  /// Emits (l, r), translating `l` from subtree-local ids back to global
  /// vertex ids when the subtree is renumbered.
  void EmitBiclique(std::span<const VertexId> l, std::span<const VertexId> r,
                    ResultSink* sink);

  /// Logical bytes of a level's current contents (memory accounting).
  static uint64_t LevelBytes(const Level& lvl);

  const BipartiteGraph& graph_;
  MbetOptions options_;
  EnumStats stats_;
  RunPoller poller_;
  SubtreeBuilder builder_;
  MembershipMask lp_mask_;  ///< membership of the current L' over U
  std::vector<std::unique_ptr<Level>> levels_;
  SubtreeRoot root_;
  std::vector<VertexId> root_absorbed_;

  /// All per-node scratch (aggregation slot tables, absorbed-member
  /// buffers) comes from here; one context per enumerator (= per thread).
  EnumContext ctx_;
  /// Run each subtree in the builder's local ids [0, |L0|), so every probe
  /// of lp_mask_ lands in its first WordsFor(|L0|) words. Disabled in MBETM mode,
  /// whose sets stay in global ids because it counts against global
  /// adjacency.
  bool renumber_ = false;
  std::vector<VertexId> emit_l_;       ///< local -> global translation buffer
};

}  // namespace mbe

#endif  // PMBE_CORE_MBET_H_
