// T1 — dataset statistics table (the shape of "Table 1" in MBE papers):
// |U|, |V|, |E|, D(U), D2(U), D(V), D2(V), and the maximal biclique count
// of every synthetic stand-in.

#include <cstdio>

#include "bench/harness.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");

  bench::PrintBanner("T1", "dataset statistics (synthetic stand-ins)");
  bench::Table table({"dataset", "stands in for", "|U|", "|V|", "|E|", "D(U)",
                      "D2(U)", "D(V)", "D2(V)", "max. bicliques"});

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    const gen::DatasetSpec& spec = gen::FindDataset(name);
    BipartiteGraph graph = gen::Materialize(spec, scale);
    GraphStats stats = ComputeStats(graph, /*with_two_hop=*/true);

    RunOptions options;  // MBET defaults
    options.threads = static_cast<unsigned>(flags.GetInt("threads"));
    bench::RunOutcome run =
        bench::TimedRun(graph, GraphOptions(), options, budget);
    std::string count = util::HumanCount(static_cast<double>(run.bicliques));
    if (!run.completed) count = ">" + count + " (budget)";

    table.AddRow({spec.name, spec.full_name, std::to_string(stats.num_left),
                  std::to_string(stats.num_right),
                  std::to_string(stats.num_edges),
                  std::to_string(stats.max_left_degree),
                  std::to_string(stats.max_left_two_hop),
                  std::to_string(stats.max_right_degree),
                  std::to_string(stats.max_right_two_hop), count});
  }
  bench::EmitTable(table, flags);
  return 0;
}
