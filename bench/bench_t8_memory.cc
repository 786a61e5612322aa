// T8 — memory table: peak charged working set of MBET (stored locals +
// trie) vs MBETM (recompute mode) vs a naive bound (what pre-allocating
// per-node copies would take: depth x (|L|+|R|+|C|) ints). Expected shape:
// MBETM an order of magnitude below MBET; both far below the naive bound.

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

  bench::PrintBanner("T8", "peak working set: MBET vs MBETM vs naive bound");
  bench::Table table({"dataset", "graph (CSR)", "MBET peak", "MBETM peak",
                      "naive bound", "MBET time", "MBETM time"});

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);
    GraphStats gs = ComputeStats(graph, /*with_two_hop=*/true);

    RunOptions mbet;
    bench::RunOutcome r_mbet =
        bench::TimedRun(graph, GraphOptions(), mbet, budget);
    RunOptions mbetm;
    mbetm.algorithm = Algorithm::kMbetM;
    bench::RunOutcome r_mbetm =
        bench::TimedRun(graph, GraphOptions(), mbetm, budget);

    // Naive bound: every active node on a subtree path keeps its own
    // (L, R, C) copy — D(V) levels of (D(V) + 2 * D2(V)) vertex ids.
    const uint64_t naive =
        static_cast<uint64_t>(gs.max_right_degree) *
        (gs.max_right_degree + 2ull * gs.max_right_two_hop) * sizeof(VertexId);

    table.AddRow({name, util::HumanBytes(graph.MemoryBytes()),
                  util::HumanBytes(r_mbet.stats.peak_charged_bytes),
                  util::HumanBytes(r_mbetm.stats.peak_charged_bytes),
                  util::HumanBytes(naive), bench::TimeCell(r_mbet, budget),
                  bench::TimeCell(r_mbetm, budget)});
  }
  bench::EmitTable(table, flags);
  return 0;
}
