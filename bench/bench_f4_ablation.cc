// F4 — ablation figure: MBET with each technique disabled in turn.
// Columns: full MBET, without trie batching (direct per-candidate scans),
// without equivalence-class aggregation, without Q filtering, and the
// MBETM space mode. Also reports the trie's probe savings
// (probes / unshared-scan size; lower is better).

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

  bench::PrintBanner("F4", "ablation of MBET techniques");
  bench::Table table({"dataset", "MBET", "w/o trie", "w/o aggregation",
                      "w/o both", "w/o Q-filter", "MBETM",
                      "trie probe ratio"});

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);

    RunOptions full;
    bench::RunOutcome r_full =
        bench::TimedRun(graph, GraphOptions(), full, budget);

    RunOptions no_trie;
    no_trie.mbet.use_trie = false;
    bench::RunOutcome r_no_trie =
        bench::TimedRun(graph, GraphOptions(), no_trie, budget);

    RunOptions no_agg;
    no_agg.mbet.use_aggregation = false;
    bench::RunOutcome r_no_agg =
        bench::TimedRun(graph, GraphOptions(), no_agg, budget);

    RunOptions no_both;
    no_both.mbet.use_trie = false;
    no_both.mbet.use_aggregation = false;
    bench::RunOutcome r_no_both =
        bench::TimedRun(graph, GraphOptions(), no_both, budget);

    RunOptions no_q;
    no_q.mbet.prune_q = false;
    bench::RunOutcome r_no_q =
        bench::TimedRun(graph, GraphOptions(), no_q, budget);

    RunOptions mbetm;
    mbetm.algorithm = Algorithm::kMbetM;
    bench::RunOutcome r_mbetm =
        bench::TimedRun(graph, GraphOptions(), mbetm, budget);

    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f",
                  r_full.stats.local_scan_size
                      ? static_cast<double>(r_full.stats.trie_probes) /
                            static_cast<double>(r_full.stats.local_scan_size)
                      : 0.0);

    table.AddRow({name, bench::TimeCell(r_full, budget),
                  bench::TimeCell(r_no_trie, budget),
                  bench::TimeCell(r_no_agg, budget),
                  bench::TimeCell(r_no_both, budget),
                  bench::TimeCell(r_no_q, budget),
                  bench::TimeCell(r_mbetm, budget), ratio});
  }
  bench::EmitTable(table, flags);
  return 0;
}
