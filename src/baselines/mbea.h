#ifndef PMBE_BASELINES_MBEA_H_
#define PMBE_BASELINES_MBEA_H_

#include <vector>

#include "core/enum_context.h"
#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/set_ops.h"
#include "core/sink.h"
#include "core/subtree.h"
#include "graph/bipartite_graph.h"

/// \file
/// MBEA / iMBEA baselines (Zhang et al., BMC Bioinformatics 2014): the
/// (L, R, C, Q) backtracking enumerator whose maximality check walks the Q
/// set of previously traversed candidates instead of recomputing C(L').
///
/// `improved = true` enables the iMBEA refinements: candidates are
/// traversed in ascending local-neighborhood size, dead Q entries are
/// filtered, and intersection sizes use early exit.
///
/// Besides the faithful global-root EnumerateAll, the class offers the
/// per-vertex EnumerateSubtree used by the parallel driver (the ParMBE
/// work decomposition of Das & Tirthapura, HiPC 2019).

namespace mbe {

/// Switches for the MBEA family.
struct MbeaOptions {
  bool improved = true;  ///< iMBEA refinements on/off
};

/// The MBEA / iMBEA enumerator.
class MbeaEnumerator {
 public:
  MbeaEnumerator(const BipartiteGraph& graph, const MbeaOptions& options);

  /// Faithful global-root enumeration.
  void EnumerateAll(ResultSink* sink);

  /// Enumerates bicliques whose minimum right vertex is `v` (subtree
  /// decomposition; used for parallelism).
  void EnumerateSubtree(VertexId v, ResultSink* sink);

  /// Subtree splitting support for the work-stealing scheduler; same
  /// contract as MbetEnumerator::SplitHint / EnumerateShard. Shard `shard`
  /// traverses only top-level candidate positions `pos % num_shards ==
  /// shard` (positions in the deterministic iMBEA traversal order) and
  /// appends the others to Q unexpanded, which reproduces the sequential
  /// node state; the root biclique goes to shard 0.
  uint32_t SplitHint(VertexId v, uint32_t max_shards, uint64_t min_work);
  void EnumerateShard(VertexId v, uint32_t shard, uint32_t num_shards,
                      ResultSink* sink);

  const EnumStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EnumStats(); }

  /// Attaches run control; polled once per node expansion and candidate
  /// traversal. Pass nullptr to detach. Call before enumerating.
  void SetRunController(RunController* controller) {
    poller_.Attach(controller);
  }

 private:
  /// One node expansion. All operands live in EnumContext buffers owned by
  /// the caller's frame: `cands`/`q` are consumed read-only except that
  /// traversed candidates are appended to `q` (the caller rebuilds its
  /// buffer each iteration anyway).
  /// `shard`/`num_shards` implement top-level splitting: non-default
  /// values only ever come from EnumerateShard's root call; recursive
  /// calls always pass the defaults (shards own whole sub-branches).
  void Expand(const std::vector<VertexId>& l, const std::vector<VertexId>& r,
              const std::vector<VertexId>& cands, std::vector<VertexId>& q,
              ResultSink* sink, uint32_t shard = 0, uint32_t num_shards = 1);

  /// Combined cooperative stop poll: run controller, then the sink chain.
  bool Stopped(ResultSink* sink) {
    return poller_.ShouldStop(stats_) || sink->ShouldStop();
  }

  const BipartiteGraph& graph_;
  MbeaOptions options_;
  EnumStats stats_;
  RunPoller poller_;
  MembershipMask l_mask_;
  SubtreeBuilder builder_;
  SubtreeRoot root_;
  std::vector<VertexId> root_absorbed_;
  EnumContext ctx_;  ///< per-node scratch pool (checkpoint/rewind per depth)
};

}  // namespace mbe

#endif  // PMBE_BASELINES_MBEA_H_
