// T2 — overall runtime comparison (the headline figure of the evaluation):
// MBET / MBETM vs MineLMBC, MBEA, iMBEA, ooMBEA-lite and the parallel
// configuration across the dataset suite. Expected shape: MBET fastest or
// tied nearly everywhere; the from-scratch baseline (MineLMBC) orders of
// magnitude behind on biclique-rich datasets.

#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");
  unsigned par_threads = static_cast<unsigned>(flags.GetInt("threads"));
  if (par_threads <= 1) {
    par_threads = std::max(2u, std::thread::hardware_concurrency());
  }

  bench::PrintBanner("T2", "overall runtime, all algorithms");
  bench::Table table({"dataset", "bicliques", "MineLMBC", "MBEA", "iMBEA",
                      "ooMBEA-lite", "MBETM", "MBET",
                      "MBET x" + std::to_string(par_threads)});

  struct Config {
    Algorithm algorithm;
    VertexOrder order;
    unsigned threads;
    bool subtree_tasks = false;
  };
  const Config configs[] = {
      {Algorithm::kMineLmbc, VertexOrder::kDegreeAsc, 1},
      {Algorithm::kMbea, VertexOrder::kDegreeAsc, 1},
      {Algorithm::kImbea, VertexOrder::kDegreeAsc, 1},
      // ooMBEA-lite: subtree-local iMBEA under the unilateral order.
      {Algorithm::kImbea, VertexOrder::kUnilateralAsc, 1, true},
      {Algorithm::kMbetM, VertexOrder::kDegreeAsc, 1},
      {Algorithm::kMbet, VertexOrder::kDegreeAsc, 1},
      {Algorithm::kMbet, VertexOrder::kDegreeAsc, par_threads},
  };

  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);
    std::vector<std::string> row = {name};
    std::string count_cell = "?";
    for (const Config& config : configs) {
      RunOptions options;
      options.algorithm = config.algorithm;
      options.threads = config.threads;
      GraphOptions graph_options;
      graph_options.order = config.order;
      bench::RunOutcome run =
          bench::TimedRun(graph, graph_options, options, budget,
                          config.subtree_tasks);
      if (run.completed) {
        count_cell = util::HumanCount(static_cast<double>(run.bicliques));
      }
      if (row.size() == 1) row.push_back(count_cell);  // placeholder slot
      row.push_back(bench::TimeCell(run, budget));
    }
    row[1] = count_cell;
    table.AddRow(std::move(row));
  }
  bench::EmitTable(table, flags);
  std::printf("\n(time budget per run: %.1fs; '>' marks budget-truncated runs)\n",
              budget);
  return 0;
}
