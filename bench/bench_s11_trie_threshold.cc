// S11 — sensitivity of the adaptive-trie threshold (trie_min_groups): the
// analogue of the classic "threshold s" sensitivity experiments in the MBE
// literature. Small thresholds build tries on narrow nodes (build cost not
// amortized); huge thresholds never build one (forfeits probe sharing on
// wide nodes).

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");

  bench::PrintBanner("S11", "adaptive-trie threshold sensitivity (MBET)");

  const uint32_t thresholds[] = {1, 2, 4, 8, 16, 64, 1u << 30};
  std::vector<std::string> headers = {"dataset"};
  for (uint32_t t : thresholds) {
    headers.push_back(t == 1u << 30 ? "never" : "t=" + std::to_string(t));
  }
  bench::Table table(headers);

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);
    std::vector<std::string> row = {name};
    for (uint32_t t : thresholds) {
      RunOptions options;
      options.mbet.trie_min_groups = t;
      bench::RunOutcome run =
          bench::TimedRun(graph, GraphOptions(), options, budget);
      row.push_back(bench::TimeCell(run, budget));
    }
    table.AddRow(std::move(row));
  }
  bench::EmitTable(table, flags);
  return 0;
}
