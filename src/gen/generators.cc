#include "gen/generators.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace mbe::gen {

namespace {

// Builds a cumulative distribution over n Zipf(alpha) weights.
std::vector<double> ZipfCdf(size_t n, double alpha) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -alpha);
    cdf[i] = total;
  }
  for (double& x : cdf) x /= total;
  return cdf;
}

// Samples an index from a cumulative distribution.
size_t SampleCdf(const std::vector<double>& cdf, util::Rng& rng) {
  const double x = rng.NextDouble();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
  return static_cast<size_t>(std::min<ptrdiff_t>(
      it - cdf.begin(), static_cast<ptrdiff_t>(cdf.size()) - 1));
}

}  // namespace

BipartiteGraph ErdosRenyi(size_t num_left, size_t num_right, double p,
                          uint64_t seed) {
  PMBE_CHECK_MSG(p >= 0.0 && p <= 1.0, "p=%f out of [0,1]", p);
  std::vector<Edge> edges;
  if (p <= 0.0 || num_left == 0 || num_right == 0) {
    return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
  }
  util::Rng rng(seed);
  const uint64_t total = static_cast<uint64_t>(num_left) * num_right;
  if (p >= 1.0) {
    edges.reserve(total);
    for (VertexId u = 0; u < num_left; ++u) {
      for (VertexId v = 0; v < num_right; ++v) edges.push_back({u, v});
    }
    return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
  }
  // Geometric skipping over the linearized edge space.
  edges.reserve(static_cast<size_t>(static_cast<double>(total) * p * 1.1) + 16);
  const double log1mp = std::log1p(-p);
  uint64_t index = 0;
  while (true) {
    // Skip ~Geometric(p) slots.
    const double r = rng.NextDouble();
    const double skip = std::floor(std::log1p(-r) / log1mp);
    if (skip >= static_cast<double>(total - index)) break;
    index += static_cast<uint64_t>(skip);
    edges.push_back({static_cast<VertexId>(index / num_right),
                     static_cast<VertexId>(index % num_right)});
    ++index;
    if (index >= total) break;
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

BipartiteGraph Crown(size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n * n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  return BipartiteGraph::FromEdges(n, n, std::move(edges));
}

BipartiteGraph UniformEdges(size_t num_left, size_t num_right,
                            size_t num_edges, uint64_t seed) {
  const uint64_t total = static_cast<uint64_t>(num_left) * num_right;
  PMBE_CHECK_MSG(num_edges <= total, "requested %zu edges, graph has %llu slots",
                 num_edges, static_cast<unsigned long long>(total));
  util::Rng rng(seed);
  // Rejection sampling with a dedupe set realized by sort-unique rounds:
  // cheap at our densities (≤ a few % fill).
  std::vector<uint64_t> slots;
  slots.reserve(num_edges + num_edges / 8 + 16);
  while (true) {
    while (slots.size() < num_edges + num_edges / 8 + 16 &&
           slots.size() < total * 2 + 16) {
      slots.push_back(rng.Below(total));
    }
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    if (slots.size() >= num_edges) break;
  }
  // Down-sample deterministically to exactly num_edges by shuffling.
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.Below(i)]);
  }
  slots.resize(num_edges);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t s : slots) {
    edges.push_back({static_cast<VertexId>(s / num_right),
                     static_cast<VertexId>(s % num_right)});
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

BipartiteGraph PowerLaw(size_t num_left, size_t num_right,
                        size_t target_edges, double alpha_left,
                        double alpha_right, uint64_t seed) {
  if (num_left == 0 || num_right == 0 || target_edges == 0) {
    return BipartiteGraph::FromEdges(num_left, num_right, {});
  }
  util::Rng rng(seed);
  const auto cdf_l = ZipfCdf(num_left, alpha_left);
  const auto cdf_r = ZipfCdf(num_right, alpha_right);
  std::vector<Edge> edges;
  edges.reserve(target_edges);
  // Endpoint ranks are scrambled through a fixed permutation so that hub
  // vertices are not all clustered at low ids (low ids otherwise correlate
  // with enumeration order).
  std::vector<VertexId> scramble_l(num_left), scramble_r(num_right);
  for (size_t i = 0; i < num_left; ++i) scramble_l[i] = static_cast<VertexId>(i);
  for (size_t i = 0; i < num_right; ++i) scramble_r[i] = static_cast<VertexId>(i);
  for (size_t i = num_left; i > 1; --i) std::swap(scramble_l[i - 1], scramble_l[rng.Below(i)]);
  for (size_t i = num_right; i > 1; --i) std::swap(scramble_r[i - 1], scramble_r[rng.Below(i)]);
  for (size_t e = 0; e < target_edges; ++e) {
    const VertexId u = scramble_l[SampleCdf(cdf_l, rng)];
    const VertexId v = scramble_r[SampleCdf(cdf_r, rng)];
    edges.push_back({u, v});
  }
  // FromEdges collapses duplicates, so the realized edge count is slightly
  // below target_edges — acceptable for a stand-in workload.
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

BipartiteGraph PlantBicliques(const BipartiteGraph& base, size_t count,
                              size_t left_size, size_t right_size,
                              uint64_t seed,
                              std::vector<PlantedBiclique>* out_planted) {
  PMBE_CHECK(left_size <= base.num_left() && right_size <= base.num_right());
  util::Rng rng(seed);
  std::vector<Edge> edges = base.ToEdges();
  if (out_planted) out_planted->clear();
  for (size_t b = 0; b < count; ++b) {
    PlantedBiclique planted;
    // Sample distinct vertices per side via partial shuffle of a small
    // reservoir window.
    auto sample_side = [&rng](size_t n, size_t k) {
      std::vector<VertexId> picked;
      picked.reserve(k);
      // Floyd's algorithm for distinct samples.
      std::vector<VertexId> seen;
      for (size_t j = n - k; j < n; ++j) {
        const uint64_t t = rng.Below(j + 1);
        VertexId candidate = static_cast<VertexId>(t);
        if (std::find(seen.begin(), seen.end(), candidate) != seen.end()) {
          candidate = static_cast<VertexId>(j);
        }
        seen.push_back(candidate);
        picked.push_back(candidate);
      }
      std::sort(picked.begin(), picked.end());
      return picked;
    };
    planted.left = sample_side(base.num_left(), left_size);
    planted.right = sample_side(base.num_right(), right_size);
    for (VertexId u : planted.left) {
      for (VertexId v : planted.right) edges.push_back({u, v});
    }
    if (out_planted) out_planted->push_back(std::move(planted));
  }
  return BipartiteGraph::FromEdges(base.num_left(), base.num_right(),
                                   std::move(edges));
}

BipartiteGraph BlockCommunity(size_t num_left, size_t num_right,
                              size_t blocks, double p_in, double p_out,
                              uint64_t seed) {
  PMBE_CHECK(blocks > 0);
  util::Rng rng(seed);
  std::vector<Edge> edges;
  // Background noise.
  {
    BipartiteGraph bg = ErdosRenyi(num_left, num_right, p_out, seed ^ 0x5bd1e995ULL);
    edges = bg.ToEdges();
  }
  // Dense blocks: contiguous id ranges per block on each side.
  for (size_t b = 0; b < blocks; ++b) {
    const size_t l_lo = num_left * b / blocks;
    const size_t l_hi = num_left * (b + 1) / blocks;
    const size_t r_lo = num_right * b / blocks;
    const size_t r_hi = num_right * (b + 1) / blocks;
    for (size_t u = l_lo; u < l_hi; ++u) {
      for (size_t v = r_lo; v < r_hi; ++v) {
        if (rng.Chance(p_in)) {
          edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
        }
      }
    }
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

BipartiteGraph HubBlock(size_t block_left, size_t block_right,
                        size_t tail_left, size_t tail_right, double p_in,
                        double p_tail, uint64_t seed) {
  util::Rng rng(seed);
  const size_t num_left = block_left + tail_left;
  const size_t num_right = 1 + block_right + tail_right;
  std::vector<Edge> edges;
  // Hub: right id 0 covers the whole block's left side, so all bicliques
  // containing it share the minimum right vertex 0.
  for (size_t u = 0; u < block_left; ++u) {
    edges.push_back({static_cast<VertexId>(u), 0});
  }
  // Dense block on right ids [1, 1 + block_right).
  for (size_t u = 0; u < block_left; ++u) {
    for (size_t v = 0; v < block_right; ++v) {
      if (rng.Chance(p_in)) {
        edges.push_back({static_cast<VertexId>(u),
                         static_cast<VertexId>(1 + v)});
      }
    }
  }
  // Sparse tail on disjoint ranges: many light subtrees.
  for (size_t u = 0; u < tail_left; ++u) {
    for (size_t v = 0; v < tail_right; ++v) {
      if (rng.Chance(p_tail)) {
        edges.push_back({static_cast<VertexId>(block_left + u),
                         static_cast<VertexId>(1 + block_right + v)});
      }
    }
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

}  // namespace mbe::gen
