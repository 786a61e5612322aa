// Quickstart: build a small bipartite graph, enumerate its maximal
// bicliques with the default (MBET) configuration, and print them.
//
//   $ ./quickstart
//
// Optionally pass a 0-based edge-list file:
//
//   $ ./quickstart my_graph.txt

#include <cstdio>

#include "api/mbe.h"
#include "graph/graph_io.h"

int main(int argc, char** argv) {
  mbe::BipartiteGraph graph;
  if (argc > 1) {
    auto loaded = mbe::LoadEdgeList(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    // The running-example graph of the MBE literature: 5 users x 4 items.
    graph = mbe::BipartiteGraph::FromEdges(
        5, 4,
        {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 1},
         {3, 1}, {3, 2}, {3, 3}, {4, 3}});
  }
  std::printf("graph: %s\n", graph.Summary().c_str());

  mbe::CollectSink sink;
  mbe::RunOptions options;  // defaults: MBET, single-threaded
  options.control.deadline_seconds = 30;  // bound the run; exponential output
  mbe::RunResult run;
  if (mbe::util::Status status =
          mbe::Enumerate(graph, mbe::GraphOptions(), options, &sink, &run);
      !status.ok()) {
    std::fprintf(stderr, "enumeration rejected: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (!run.complete()) {
    std::printf("stopped early (%s) — results below are a valid prefix\n",
                mbe::TerminationName(run.termination));
  }

  const auto results = sink.TakeSorted();
  std::printf("found %zu maximal bicliques in %.3fms:\n", results.size(),
              run.seconds * 1e3);
  for (const mbe::Biclique& b : results) {
    std::printf("  %s\n", mbe::ToString(b).c_str());
  }
  std::printf("enumeration nodes: %llu, non-maximal rejected: %llu\n",
              static_cast<unsigned long long>(run.stats.nodes_expanded),
              static_cast<unsigned long long>(run.stats.non_maximal));
  return 0;
}
