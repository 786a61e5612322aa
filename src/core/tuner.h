#ifndef PMBE_CORE_TUNER_H_
#define PMBE_CORE_TUNER_H_

#include <cstdint>

#include "graph/bipartite_graph.h"

/// \file
/// Workload-adaptive auto-tuner (docs/TUNING.md).
///
/// Which engine enumerates fastest depends on the workload: dense graphs
/// favour MBET's prefix tree (wide nodes, shared local prefixes),
/// hub-dominated and sparse graphs favour BBK's root-clipped locals.
/// Instead of hand-picking the engine per dataset, `ProfileGraph` samples
/// cheap statistics of the built graph once (O(edges) worst case, sampled
/// well below that) and `Tune` maps them through a small measured decision
/// table. The pick is recorded in `EnumStats` (auto_tuned / tuner_rule /
/// tuned_algorithm) and the bench JSON context so tuning regressions stay
/// visible.
///
/// The tuner only picks the engine; `RunOptions::algorithm` (`pmbe
/// --algorithm`) keeps the manual path, and the enumerated set is the same
/// under any decision — the two engines are set-identical.

namespace mbe {

/// Cheap sampled statistics of a built graph. Computed once at
/// `Engine::Build` time, after side-swapping and ordering, so the right
/// side is the enumeration side.
struct GraphProfile {
  uint64_t num_left = 0;
  uint64_t num_right = 0;
  uint64_t num_edges = 0;
  /// Edge density: edges / (left · right). 0 for degenerate sides.
  double density = 0.0;
  /// Mean right degree: edges / right (the mean subtree |L0|).
  double avg_right_degree = 0.0;
  /// Max right degree / mean right degree: >> 1 means a few hub subtrees
  /// dominate the work.
  double degree_skew = 0.0;
  /// Sampled wedge ratio: E_v[Σ_{u ∈ N(v)} degL(u)] / num_left over
  /// sampled right vertices v — an O(deg) upper-bound proxy for the
  /// two-hop neighborhood size |N(N(v))|, i.e. how crowded the candidate
  /// space of a subtree root is.
  double two_hop_ratio = 0.0;
};

/// Profiles `graph`. Deterministic in `seed` (drives the right-vertex
/// sample; at most 64 vertices are sampled).
GraphProfile ProfileGraph(const BipartiteGraph& graph, uint64_t seed);

/// Decision-table rows, in match order. Numeric values are stable: they
/// are stored in `EnumStats::tuner_rule` and printed by `pmbe --stats`.
enum class TunerRule : uint8_t {
  kNone = 0,    ///< tuner not consulted
  kTiny = 1,    ///< too little work for the acceleration machinery
  kDense = 2,   ///< dense graph: wide nodes, word-filling locals
  kSkewed = 3,  ///< hub-dominated: a few subtrees carry the run
  kSparse = 4,  ///< sparse, roughly uniform (the default regime)
};

/// Human-readable rule name ("dense", "skewed", ...).
const char* TunerRuleName(TunerRule rule);

/// Engine recommendation of the decision table. The tuner lives below the
/// API layer, so it cannot name `mbe::Algorithm`; the session maps kMbet /
/// kBbk onto the corresponding Algorithm values when it honors the pick.
/// Numeric values are stable: they are stored in
/// `EnumStats::tuned_algorithm` and printed by `pmbe --stats`.
enum class TunerEngine : uint8_t {
  kNone = 0,  ///< no recommendation (tuner not consulted)
  kMbet = 1,  ///< prefix-tree enumerator: dense / tiny regimes
  kBbk = 2,   ///< pivot-free left extension: large sparse / skewed regimes
};

/// Human-readable engine name ("MBET", "BBK", "none").
const char* TunerEngineName(TunerEngine engine);

/// What the tuner chose: the matched row and its engine.
struct TunerDecision {
  TunerRule rule = TunerRule::kNone;
  /// Which engine the profile's regime favors (docs/TUNING.md). Advisory:
  /// the session only honors it for plain-enumeration queries where the
  /// two engines are interchangeable (no size thresholds, no baked core
  /// reduction, no branch-and-bound watermark) — the enumerated *set* is
  /// identical either way, so honoring the pick never changes output.
  TunerEngine engine = TunerEngine::kNone;
};

/// Maps a profile through the decision table (docs/TUNING.md documents
/// each row and the measurements behind it). Pure function of the
/// profile: same graph + seed → same decision.
TunerDecision Tune(const GraphProfile& profile);

}  // namespace mbe

#endif  // PMBE_CORE_TUNER_H_
