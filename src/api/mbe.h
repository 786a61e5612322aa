#ifndef PMBE_API_MBE_H_
#define PMBE_API_MBE_H_

#include "api/engine.h"
#include "api/options.h"
#include "api/session.h"
#include "core/enum_stats.h"
#include "core/mbet.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"
#include "graph/ordering.h"
#include "util/status.h"

/// \file
/// The one-shot library facade: a single call that takes an input
/// bipartite graph, the two option halves of api/options.h, and a sink,
/// and runs the full pipeline — preprocessing (side swap, left hub-first
/// relabeling, right-side ordering), algorithm selection, optional
/// parallel fan-out — while translating emitted bicliques back to the
/// caller's original vertex ids.
///
/// Quickstart:
/// ```
///   mbe::CollectSink sink;
///   mbe::RunOptions run;                       // defaults: MBET
///   run.control.deadline_seconds = 10;         // optional run control
///   mbe::RunResult result;
///   mbe::util::Status s =
///       mbe::Enumerate(graph, mbe::GraphOptions(), run, &sink, &result);
///   if (!s.ok()) { /* bad options, not a crash */ }
///   if (result.termination != mbe::Termination::kComplete) { /* truncated */ }
///   for (const mbe::Biclique& b : sink.TakeSorted()) { ... }
/// ```
///
/// The facade is a thin wrapper over the session-oriented API
/// (docs/SERVICE.md): each call builds an `mbe::Engine` (the preprocessed
/// graph) and runs one `mbe::Session` over it. Callers that enumerate the
/// *same graph* more than once — different thresholds, budgets, or
/// algorithms, or many concurrent queries — should hold the Engine and
/// create Sessions directly; the facade re-pays preprocessing on every
/// call.
///
/// Interrupted runs — cancellation, deadline, budget, and a contained
/// failure such as a throwing sink — are *not* errors: they return OK with
/// `RunResult::termination` describing why the run stopped (a failure as
/// kInternal with `RunResult::message`), and the sink holds the valid
/// prefix of results emitted before the stop.

namespace mbe {

/// Runs the configured enumeration of `graph` into `sink`, filling
/// `*result` (which may be null). Emitted bicliques use the caller's
/// original vertex ids and side orientation. Returns InvalidArgument —
/// without starting the run — when `sink` is null or either options half
/// fails its `Validate()`. Interrupted runs (see RunOptions::control) and
/// contained failures return OK with `result->termination` set.
///
/// The engine is built for this one query, so its core reduction follows
/// the query: `graph_options.min_left/min_right` are replaced by `run`'s
/// thresholds, and only the MBET family is core-reduced. Equivalent to
/// `Engine::Build(graph, GraphOptionsForRun(graph_options, run))` plus
/// one `Session(engine, run).Run(sink, result)`.
util::Status Enumerate(const BipartiteGraph& graph,
                       const GraphOptions& graph_options,
                       const RunOptions& run, ResultSink* sink,
                       RunResult* result);

/// Like Enumerate, but runs the per-vertex subtree tasks one after another
/// on a private one-worker SessionPool (api/session_pool.h) — exactly what
/// a served session on a one-thread pool does — instead of the
/// algorithm's whole-graph traversal (same result set). Ignores
/// `run.threads` and `run.checkpoint`.
/// For Algorithm::kImbea under VertexOrder::kUnilateralAsc this is the
/// paper's ooMBEA-lite baseline: iMBEA per right vertex over 2-hop-local
/// roots, dominated subtrees pruned.
util::Status EnumerateSubtreeTasks(const BipartiteGraph& graph,
                                   const GraphOptions& graph_options,
                                   const RunOptions& run, ResultSink* sink,
                                   RunResult* result);

/// Convenience: counts the maximal bicliques of `graph` under the options.
/// Aborts on invalid options (counting has no error channel).
uint64_t CountMaximalBicliques(const BipartiteGraph& graph,
                               const GraphOptions& graph_options,
                               const RunOptions& run);

/// Finds a biclique of `graph` maximizing |L| * |R| (the maximum edge
/// biclique) subject to `run.mbet.min_left` / `min_right`, using MBET
/// with branch-and-bound pruning (subtrees whose |L| * |R| upper bound
/// cannot beat the incumbent are skipped). Runs single-threaded — the
/// pruning watermark is shared mutable state. Yields an empty biclique
/// when no biclique satisfies the constraints. `run.algorithm` and
/// `run.threads` are ignored (always single-threaded MBET).
///
/// This is an **anytime** search under run control: if the run is
/// cancelled or hits a deadline/budget, `*best` is the best incumbent
/// found so far (`result->termination` says the search was truncated, so
/// the incumbent is a lower bound rather than a proven optimum).
util::Status FindMaximumBiclique(const BipartiteGraph& graph,
                                 const GraphOptions& graph_options,
                                 const RunOptions& run, Biclique* best,
                                 RunResult* result = nullptr);

}  // namespace mbe

#endif  // PMBE_API_MBE_H_
