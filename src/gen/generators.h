#ifndef PMBE_GEN_GENERATORS_H_
#define PMBE_GEN_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

/// \file
/// Synthetic bipartite graph generators. These are the data substrate of
/// the evaluation: the MBE literature benchmarks on KONECT/SNAP datasets
/// that are not available in this offline environment, so the dataset
/// registry (registry.h) composes these generators into scaled stand-ins
/// matching each dataset's |U|:|V| ratio, average degree, and degree skew.
///
/// All generators are deterministic in their seed.

namespace mbe::gen {

/// Uniform (Erdős–Rényi) bipartite graph: each of the `num_left*num_right`
/// possible edges appears independently with probability `p`. For sparse
/// settings the generator uses geometric skipping, so the cost is
/// proportional to the number of edges generated.
BipartiteGraph ErdosRenyi(size_t num_left, size_t num_right, double p,
                          uint64_t seed);

/// Crown graph: K_{n,n} minus a perfect matching (u_i ~ v_j iff i != j).
/// Every proper nonempty S ⊆ U is the left side of exactly one maximal
/// biclique (S, {v_j : u_j ∉ S}), giving 2^n − 2 of them. At n = 40 no
/// host enumerates them all, so a run on it is still going whenever a
/// deadline, cancel or admission check arrives.
BipartiteGraph Crown(size_t n);

/// Uniform bipartite graph with exactly `num_edges` distinct edges sampled
/// without replacement.
BipartiteGraph UniformEdges(size_t num_left, size_t num_right,
                            size_t num_edges, uint64_t seed);

/// Chung–Lu style power-law bipartite graph. Both sides get Zipf-like
/// weights `w_i ∝ (i+1)^-alpha`; an edge (u, v) appears with probability
/// ≈ w_u * w_v * S where S normalizes the expected edge count to
/// `target_edges`. Realized via weighted sampling of `target_edges`
/// endpoints with duplicate collapse, which preserves the degree skew that
/// drives MBE difficulty (a few huge-degree hubs, many leaves).
BipartiteGraph PowerLaw(size_t num_left, size_t num_right,
                        size_t target_edges, double alpha_left,
                        double alpha_right, uint64_t seed);

/// Parameters of one planted biclique.
struct PlantedBiclique {
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};

/// Plants `count` complete bipartite blocks of size `left_size x right_size`
/// at random positions on top of `base`, then returns the combined graph.
/// Planted blocks may overlap each other and the base edges. When
/// `out_planted` is non-null the chosen blocks are reported (tests use this
/// to assert that each planted block is contained in some enumerated
/// maximal biclique).
BipartiteGraph PlantBicliques(const BipartiteGraph& base, size_t count,
                              size_t left_size, size_t right_size,
                              uint64_t seed,
                              std::vector<PlantedBiclique>* out_planted);

/// A "community" graph: `blocks` dense groups with intra-block edge
/// probability `p_in` plus background probability `p_out`. Models the
/// fraud-ring / recommendation workloads from the MBE application domains.
BipartiteGraph BlockCommunity(size_t num_left, size_t num_right,
                              size_t blocks, double p_in, double p_out,
                              uint64_t seed);

/// A deliberately load-skewed graph for the parallel-scheduling
/// experiments: right vertex 0 is a *hub* adjacent to every left vertex of
/// a dense `block_left x block_right` block (intra-block edge probability
/// `p_in`), followed by a sparse `tail_left x tail_right` uniform tail
/// (probability `p_tail`) on disjoint vertex ranges. Under the natural
/// ascending right order, every maximal biclique containing the hub lands
/// in subtree(0), so one subtree carries nearly all enumeration work while
/// the tail provides many tiny subtrees — the worst case for static
/// partitioning and the showcase for work stealing with subtree splitting.
///
/// Sides: num_left = block_left + tail_left,
///        num_right = 1 + block_right + tail_right (hub is right id 0).
BipartiteGraph HubBlock(size_t block_left, size_t block_right,
                        size_t tail_left, size_t tail_right, double p_in,
                        double p_tail, uint64_t seed);

}  // namespace mbe::gen

#endif  // PMBE_GEN_GENERATORS_H_
