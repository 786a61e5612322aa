#ifndef PMBE_GRAPH_TWO_HOP_H_
#define PMBE_GRAPH_TWO_HOP_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/bitset.h"
#include "util/common.h"

/// \file
/// Two-hop neighborhood computation. For a right vertex `v`, the two-hop
/// neighborhood N2(v) is the set of right vertices (other than v) sharing at
/// least one left neighbor with v. The vertex orders and the two-hop
/// degree statistics use it; subtree roots count their two-hop neighbors
/// in their own wedge pass (core/subtree.h).

namespace mbe {

/// Reusable scratch for repeated two-hop computations; holds a bitmap mark
/// over one side of the graph (util/bitset.h words — 1 bit per vertex, so
/// the scratch for even the largest side stays cache-resident).
class TwoHopScratch {
 public:
  /// Prepares scratch for graphs with at most `num_right` right vertices.
  explicit TwoHopScratch(size_t num_right)
      : mark_(util::WordsFor(num_right), 0) {}

  /// Computes N2(v) on the right side into `out` (sorted ascending).
  /// `out` is cleared first.
  void RightTwoHop(const BipartiteGraph& graph, VertexId v,
                   std::vector<VertexId>* out);

 private:
  std::vector<uint64_t> mark_;
  std::vector<VertexId> touched_;
};

/// Exact maximum |N2(u)| over left vertices (the paper tables' D2(U)).
size_t MaxTwoHopDegreeLeft(const BipartiteGraph& graph);

/// Exact maximum |N2(v)| over right vertices (the paper tables' D2(V)).
size_t MaxTwoHopDegreeRight(const BipartiteGraph& graph);

}  // namespace mbe

#endif  // PMBE_GRAPH_TWO_HOP_H_
