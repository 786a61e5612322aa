#include "api/mbe.h"

#include <memory>
#include <utility>

#include "api/session_pool.h"

namespace mbe {

namespace {

util::Status RunOnce(const BipartiteGraph& graph,
                     const GraphOptions& graph_options, const RunOptions& run,
                     ResultSink* sink, RunResult* out_result,
                     bool subtree_tasks) {
  if (sink == nullptr) {
    return util::Status::InvalidArgument("sink must not be null");
  }
  PMBE_RETURN_IF_ERROR(run.Validate());
  util::StatusOr<std::shared_ptr<const Engine>> engine =
      Engine::Build(graph, GraphOptionsForRun(graph_options, run));
  PMBE_RETURN_IF_ERROR(engine.status());
  Session session(engine.value(), run);
  RunResult result;
  if (subtree_tasks) {
    // The subtree tasks in order on one pool worker: the same path a
    // served session takes.
    util::ScopedBudgetBinding binding(&session.budget());
    PMBE_RETURN_IF_ERROR(session.Prepare(sink));
    SessionPool pool(1);
    pool.Submit(std::shared_ptr<Session>(&session, [](Session*) {}),
                [&result](const RunResult& done) { result = done; });
    pool.Shutdown();
  } else {
    PMBE_RETURN_IF_ERROR(session.Run(sink, &result));
  }
  result.preprocess_seconds = engine.value()->build_seconds();
  if (out_result != nullptr) *out_result = std::move(result);
  return util::Status::Ok();
}

}  // namespace

util::Status Enumerate(const BipartiteGraph& graph,
                       const GraphOptions& graph_options,
                       const RunOptions& run, ResultSink* sink,
                       RunResult* result) {
  return RunOnce(graph, graph_options, run, sink, result,
                 /*subtree_tasks=*/false);
}

util::Status EnumerateSubtreeTasks(const BipartiteGraph& graph,
                                   const GraphOptions& graph_options,
                                   const RunOptions& run, ResultSink* sink,
                                   RunResult* result) {
  return RunOnce(graph, graph_options, run, sink, result,
                 /*subtree_tasks=*/true);
}

uint64_t CountMaximalBicliques(const BipartiteGraph& graph,
                               const GraphOptions& graph_options,
                               const RunOptions& run) {
  CountSink sink;
  const util::Status status =
      Enumerate(graph, graph_options, run, &sink, nullptr);
  PMBE_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
  return sink.count();
}

namespace {

/// Tracks the best-so-far biclique by edge count and raises the
/// branch-and-bound watermark the enumerator prunes against.
class BestEdgeSink : public ResultSink {
 public:
  explicit BestEdgeSink(uint64_t* watermark) : watermark_(watermark) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t edges =
        static_cast<uint64_t>(left.size()) * right.size();
    if (edges > *watermark_) {
      *watermark_ = edges;
      best_.left.assign(left.begin(), left.end());
      best_.right.assign(right.begin(), right.end());
    }
  }

  Biclique Take() { return std::move(best_); }

 private:
  uint64_t* watermark_;
  Biclique best_;
};

}  // namespace

util::Status FindMaximumBiclique(const BipartiteGraph& graph,
                                 const GraphOptions& graph_options,
                                 const RunOptions& run, Biclique* best,
                                 RunResult* result) {
  if (best == nullptr) {
    return util::Status::InvalidArgument("best must not be null");
  }
  uint64_t watermark = 0;
  RunOptions search = run;
  search.algorithm = Algorithm::kMbet;
  search.threads = 1;  // the watermark is unsynchronized mutable state
  search.mbet.best_edges = &watermark;
  BestEdgeSink sink(&watermark);
  // Under run control this is an anytime search: a deadline/budget stop
  // leaves the best incumbent seen so far in the sink.
  PMBE_RETURN_IF_ERROR(
      Enumerate(graph, graph_options, search, &sink, result));
  *best = sink.Take();
  return util::Status::Ok();
}

}  // namespace mbe
