// F5 — vertex-ordering sensitivity: MBET runtime under every right-side
// order. Expected shape: degree-ascending / two-hop / unilateral orders
// clearly ahead of input or random order; degree-descending worst.

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");

  bench::PrintBanner("F5", "vertex-ordering sensitivity (MBET)");

  const VertexOrder orders[] = {
      VertexOrder::kNone,       VertexOrder::kRandom,
      VertexOrder::kDegreeDesc, VertexOrder::kDegreeAsc,
      VertexOrder::kTwoHopAsc,  VertexOrder::kUnilateralAsc,
  };
  std::vector<std::string> headers = {"dataset"};
  for (VertexOrder order : orders) headers.push_back(VertexOrderName(order));
  bench::Table table(headers);

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);
    std::vector<std::string> row = {name};
    for (VertexOrder order : orders) {
      GraphOptions graph_options;
      graph_options.order = order;
      graph_options.seed = 7;
      bench::RunOutcome run =
          bench::TimedRun(graph, graph_options, RunOptions(), budget);
      row.push_back(bench::TimeCell(run, budget));
    }
    table.AddRow(std::move(row));
  }
  bench::EmitTable(table, flags);
  return 0;
}
