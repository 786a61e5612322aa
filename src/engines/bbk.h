#ifndef PMBE_ENGINES_BBK_H_
#define PMBE_ENGINES_BBK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/enum_context.h"
#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/set_ops.h"
#include "core/subtree.h"
#include "graph/bipartite_graph.h"

/// \file
/// BBK (Baudin, Magnien & Tabourier 2024): a pivot-free left-extension
/// enumerator tuned for large sparse bipartite graphs (docs/ALGORITHM.md).
///
/// BBK keeps the (L, R, C, Q) backtracking shape of the MBEA family but
/// drops the per-node costs that dominate on sparse inputs:
///
///  * **No per-node candidate re-sort.** Candidates are ordered once per
///    subtree by ascending root-local degree |N(w) ∩ L0| (the paper's
///    degree-ordered pruning) and every descendant node inherits that
///    order. iMBEA re-sorts at every node, which costs one extra full
///    intersection per candidate per node — pure overhead when locals are
///    short.
///  * **No adjacency rescans.** Candidate and Q neighborhoods are clipped
///    to L0 once at the root, in the subtree-local universe [0, |L0|)
///    (core/subtree.h), so every set operation below the root runs over
///    short local lists instead of full adjacency rows (correct
///    because L' ⊆ L0 implies |N(w) ∩ L'| == |loc0(w) ∩ L'|).
///  * **Witness-ordered maximality checks.** The Q scan probes the entry
///    that most recently proved a sibling non-maximal first (size-only),
///    and the root Q is ordered by descending local size — the frequent
///    non-maximal verdict usually settles in one intersection instead of
///    a full Q scan.
///
/// The subtree-local universe is also what makes bitmaps cheap: L' keeps
/// a sorted list (for emission and recursion) plus a word bitmap over
/// [0, |L0|), so every candidate and Q probe is a list × bitmap kernel
/// (core/set_ops.h, util/simd.h). Scratch lives in `EnumContext` frames
/// (pooled, budget-charged); under MemoryBudget pressure L' stays a list
/// alone, and the cap stops the run like every other engine.
///
/// Parallel support mirrors MbeaEnumerator: the per-vertex subtree
/// decomposition (EnumerateSubtree), one whole subtree per task.

namespace mbe {

/// The BBK enumerator.
class BbkEnumerator {
 public:
  explicit BbkEnumerator(const BipartiteGraph& graph);

  /// Full enumeration: the union of all per-vertex subtrees (BBK anchors
  /// every maximal biclique at its minimum right vertex, so the subtree
  /// decomposition *is* the sequential algorithm).
  void EnumerateAll(ResultSink* sink);

  /// Enumerates bicliques whose minimum right vertex is `v`.
  void EnumerateSubtree(VertexId v, ResultSink* sink);

  const EnumStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EnumStats(); }

  /// Attaches run control; polled once per node expansion and candidate
  /// traversal. Pass nullptr to detach. Call before enumerating.
  void SetRunController(RunController* controller) {
    poller_.Attach(controller);
  }

 private:
  /// Builds the root of subtree(v) (its locals come in the local universe
  /// [0, |L0|)) and fixes the degree-ascending candidate order plus the
  /// witness-descending root Q order. Returns false when the subtree is
  /// empty or pruned (`*pruned` distinguishes).
  bool BuildRootState(VertexId v, bool* pruned);

  /// The local neighborhood loc0(entry) in local ids, sorted.
  std::span<const VertexId> LocalOf(uint32_t entry) const {
    return root_.LocOf(root_.entries[entry]);
  }

  /// True when L' should carry a bitmap: always, unless the universe is
  /// empty or the memory budget is under pressure (then the list alone
  /// is kept and a degradation is noted).
  bool WantBitmap() const;

  /// One node expansion. `l`/`l_words` are the node's L in the local
  /// universe (the bitmap is empty when memory pressure kept the list
  /// alone); `cands` and `q` hold entry indices. Traversed candidates are
  /// appended to `q`.
  void Expand(const std::vector<VertexId>& l,
              std::span<const uint64_t> l_words,
              const std::vector<VertexId>& r,
              const std::vector<VertexId>& cands, std::vector<VertexId>& q,
              ResultSink* sink);

  /// Combined cooperative stop poll: run controller, then the sink chain.
  bool Stopped(ResultSink* sink) {
    return poller_.ShouldStop(stats_) || sink->ShouldStop();
  }

  const BipartiteGraph& graph_;
  EnumStats stats_;
  RunPoller poller_;
  SubtreeBuilder builder_;
  SubtreeRoot root_;
  std::vector<VertexId> root_absorbed_;

  /// Per-subtree root state (rebuilt by BuildRootState, capacity reused).
  std::vector<uint64_t> order_keys_;  ///< (loc_len << 32 | entry) sorted
  std::vector<VertexId> forbidden_;   ///< root Q, descending loc_len

  EnumContext ctx_;  ///< per-node scratch pool (checkpoint/rewind per depth)
};

}  // namespace mbe

#endif  // PMBE_ENGINES_BBK_H_
