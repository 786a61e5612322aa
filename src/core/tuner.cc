#include "core/tuner.h"

#include <algorithm>

#include "util/random.h"

namespace mbe {

GraphProfile ProfileGraph(const BipartiteGraph& graph, uint64_t seed) {
  GraphProfile p;
  p.num_left = graph.num_left();
  p.num_right = graph.num_right();
  p.num_edges = graph.num_edges();
  if (p.num_left == 0 || p.num_right == 0) return p;
  p.density = static_cast<double>(p.num_edges) /
              (static_cast<double>(p.num_left) *
               static_cast<double>(p.num_right));
  p.avg_right_degree =
      static_cast<double>(p.num_edges) / static_cast<double>(p.num_right);
  p.degree_skew =
      p.avg_right_degree > 0
          ? static_cast<double>(graph.MaxRightDegree()) / p.avg_right_degree
          : 0.0;

  // Wedge sample: for up to 64 right vertices, sum the left degrees of
  // their neighborhoods. This upper-bounds |N(N(v))| (each two-hop vertex
  // counted once per wedge) at O(deg(v)) per sample instead of a full
  // two-hop materialization.
  constexpr uint64_t kSamples = 64;
  const uint64_t n = p.num_right;
  util::Rng rng(seed);
  double wedge_sum = 0.0;
  uint64_t sampled = 0;
  for (uint64_t i = 0; i < std::min(kSamples, n); ++i) {
    const VertexId v =
        static_cast<VertexId>(n <= kSamples ? i : rng.Below(n));
    double wedges = 0.0;
    for (VertexId u : graph.RightNeighbors(v)) {
      wedges += static_cast<double>(graph.LeftDegree(u));
    }
    wedge_sum += wedges;
    ++sampled;
  }
  if (sampled > 0) {
    p.two_hop_ratio =
        (wedge_sum / static_cast<double>(sampled)) /
        static_cast<double>(p.num_left);
  }
  return p;
}

const char* TunerRuleName(TunerRule rule) {
  switch (rule) {
    case TunerRule::kNone:
      return "none";
    case TunerRule::kTiny:
      return "tiny";
    case TunerRule::kDense:
      return "dense";
    case TunerRule::kSkewed:
      return "skewed";
    case TunerRule::kSparse:
      return "sparse";
  }
  return "?";
}

const char* TunerEngineName(TunerEngine engine) {
  switch (engine) {
    case TunerEngine::kNone:
      return "none";
    case TunerEngine::kMbet:
      return "MBET";
    case TunerEngine::kBbk:
      return "BBK";
  }
  return "?";
}

TunerDecision Tune(const GraphProfile& profile) {
  TunerDecision d;
  // Rows are matched top to bottom; thresholds come from the
  // bench_s11 / bench_b13 sweeps on the gen:: families (docs/TUNING.md
  // records the numbers behind each row).
  if (profile.num_edges < 256) {
    // Too little total work to amortize wide bitmaps. MBET's fixed costs
    // are negligible here and it filters by size for free.
    d.rule = TunerRule::kTiny;
    d.bitmap_density = 0.10;
    d.engine = TunerEngine::kMbet;
  } else if (profile.density >= 0.08 || profile.two_hop_ratio >= 4.0) {
    // Dense / crowded candidate space: nodes are wide, locals fill words
    // (bitmaps pay off earlier). The regime where the prefix tree's
    // shared-prefix savings beat BBK's lighter nodes.
    d.rule = TunerRule::kDense;
    d.bitmap_density = 0.05;
    d.engine = TunerEngine::kMbet;
  } else if (profile.degree_skew >= 8.0) {
    // Hub-dominated: BBK's root-clipped locals sidestep rescanning the hub
    // rows at every node — the dominant cost in this regime. Density 0 forces
    // bitmaps: BBK's witness probes are 2x faster dense (the engine sweep
    // behind bench/BENCH_engines.json), and MBET measured flat, so the
    // knob is safe even when the query pins the engine.
    d.rule = TunerRule::kSkewed;
    d.bitmap_density = 0.0;
    d.engine = TunerEngine::kBbk;
  } else {
    // Sparse, roughly uniform: trie construction is overhead-dominated on
    // these shapes, so the pivot-free engine wins; bitmaps forced for the
    // same reason as the skewed row (subtree universes are one vertex
    // degree wide, so dense words stay small).
    d.rule = TunerRule::kSparse;
    d.bitmap_density = 0.0;
    d.engine = TunerEngine::kBbk;
  }
  return d;
}

}  // namespace mbe
