// F6 — scalability with graph size: MBET and iMBEA runtime and node counts
// over an edge-count sweep of Erdős–Rényi and power-law graphs. Expected
// shape: runtime tracks the output size (biclique count) near-linearly,
// with power-law graphs producing far more bicliques per edge.

#include <cstdio>

#include "bench/harness.h"
#include "gen/generators.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddInt("steps", 5, "number of sweep points");
  flags.Parse(argc, argv);
  const double budget = flags.GetDouble("budget");
  const int steps = static_cast<int>(flags.GetInt("steps"));

  bench::PrintBanner("F6", "scalability with |E| (ER and power-law sweeps)");
  bench::Table table({"family", "|U|", "|V|", "|E|", "bicliques", "MBET",
                      "iMBEA", "MBET nodes"});

  for (int family = 0; family < 2; ++family) {
    for (int step = 1; step <= steps; ++step) {
      const size_t num_left = 2000u * static_cast<size_t>(step);
      const size_t num_right = 1200u * static_cast<size_t>(step);
      const size_t edges = 9000u * static_cast<size_t>(step);
      BipartiteGraph graph =
          family == 0
              ? gen::UniformEdges(num_left, num_right, edges, 500 + step)
              : gen::PowerLaw(num_left, num_right, edges, 0.85, 0.8,
                              600 + step);

      RunOptions mbet;
      bench::RunOutcome r_mbet =
          bench::TimedRun(graph, GraphOptions(), mbet, budget);
      RunOptions imbea;
      imbea.algorithm = Algorithm::kImbea;
      bench::RunOutcome r_imbea =
          bench::TimedRun(graph, GraphOptions(), imbea, budget);

      table.AddRow({family == 0 ? "uniform" : "power-law",
                    std::to_string(num_left), std::to_string(num_right),
                    std::to_string(graph.num_edges()),
                    util::HumanCount(static_cast<double>(r_mbet.bicliques)),
                    bench::TimeCell(r_mbet, budget),
                    bench::TimeCell(r_imbea, budget),
                    util::HumanCount(
                        static_cast<double>(r_mbet.stats.nodes_expanded))});
    }
  }
  bench::EmitTable(table, flags);
  return 0;
}
