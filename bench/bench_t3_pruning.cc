// T3 — pruning-efficiency table: ratio of non-maximal enumeration nodes
// generated (delta) to maximal bicliques (alpha) for MBET vs MBET without
// its equivalence-class aggregation, and the subtree-level domination
// prunes. Expected shape: the prefix-tree machinery avoids a large
// fraction of non-maximal node generation.

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

  bench::PrintBanner("T3", "pruning efficiency: non-maximal/maximal ratio");
  bench::Table table({"dataset", "maximal", "d/a MBET", "d/a w/o agg",
                      "d/a iMBEA", "subtree prunes", "aggregated vertices"});

  auto ratio = [](const EnumStats& s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  s.maximal ? static_cast<double>(s.non_maximal) /
                                  static_cast<double>(s.maximal)
                            : 0.0);
    return std::string(buf);
  };

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);

    RunOptions mbet;
    bench::RunOutcome full =
        bench::TimedRun(graph, GraphOptions(), mbet, budget);

    RunOptions no_agg;
    no_agg.mbet.use_aggregation = false;
    bench::RunOutcome ablated =
        bench::TimedRun(graph, GraphOptions(), no_agg, budget);

    RunOptions imbea;
    imbea.algorithm = Algorithm::kImbea;
    bench::RunOutcome baseline =
        bench::TimedRun(graph, GraphOptions(), imbea, budget);

    table.AddRow({name,
                  util::HumanCount(static_cast<double>(full.bicliques)),
                  full.completed ? ratio(full.stats) : "budget",
                  ablated.completed ? ratio(ablated.stats) : "budget",
                  baseline.completed ? ratio(baseline.stats) : "budget",
                  std::to_string(full.stats.subtrees_pruned),
                  util::HumanCount(
                      static_cast<double>(full.stats.vertices_aggregated))});
  }
  bench::EmitTable(table, flags);
  return 0;
}
