// F7 — parallel speedup on the one task runtime (the session pool: whole
// subtrees claimed in index order from one shared cursor): MBET, parallel
// iMBEA (the ParMBE stand-in) and BBK at 1..nproc threads. Expected shape: near-linear speedup to the core count
// while the subtree pool outweighs the heaviest subtree; on skewed
// datasets the heaviest subtree bounds the tail (visible in the worker
// busy share even when wall-clock parallelism is unavailable).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"

namespace {

// A timings row ({dataset, config, cell-per-thread-count}) or a counters
// row, kept raw so the table and the JSON artifact print the same data.
struct JsonRow {
  std::vector<std::pair<std::string, std::string>> fields;
};

void WriteRows(std::FILE* out, const char* key,
               const std::vector<JsonRow>& rows) {
  std::fprintf(out, "  \"%s\": [", key);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s\n    {", i ? "," : "");
    for (size_t f = 0; f < rows[i].fields.size(); ++f) {
      std::fprintf(out, "%s\n      \"%s\": %s", f ? "," : "",
                   rows[i].fields[f].first.c_str(),
                   mbe::bench::JsonQuote(rows[i].fields[f].second).c_str());
    }
    std::fprintf(out, "\n    }");
  }
  std::fprintf(out, "\n  ]");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");

  // 1, 2, 4, ... up to the core count, and the core count itself.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t < hw; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(hw);
  const unsigned max_threads = thread_counts.back();

  bench::PrintBanner("F7", "parallel speedup on the session pool");
  std::vector<std::string> headers = {"dataset", "config"};
  for (unsigned t : thread_counts) headers.push_back("T=" + std::to_string(t));
  bench::Table table(headers);
  // Scheduler counters at the highest thread count: load balance is the
  // signal that survives even on machines without enough cores for
  // wall-clock speedup (busy share ~1.0 means no worker starved).
  bench::Table counters({"dataset", "config", "flushes", "busy_share"});

  struct Config {
    const char* label;
    Algorithm algorithm;
  };
  const Config configs[] = {
      {"MBET", Algorithm::kMbet},
      {"ParMBE (iMBEA)", Algorithm::kImbea},
      {"BBK", Algorithm::kBbk},
  };

  std::vector<JsonRow> timing_rows;
  std::vector<JsonRow> counter_rows;
  for (const std::string& name : bench::ResolveSuite(flags.GetString("suite"))) {
    BipartiteGraph graph = gen::Materialize(gen::FindDataset(name), scale);
    for (const Config& config : configs) {
      std::vector<std::string> row = {name, config.label};
      JsonRow timing{{{"dataset", name}, {"config", config.label}}};
      for (unsigned threads : thread_counts) {
        RunOptions options;
        options.algorithm = config.algorithm;
        options.threads = threads;
        bench::RunOutcome run =
            bench::TimedRun(graph, GraphOptions(), options, budget);
        const std::string cell = bench::TimeCell(run, budget);
        row.push_back(cell);
        timing.fields.push_back({"t" + std::to_string(threads), cell});
        if (threads == max_threads) {
          const double busy = static_cast<double>(run.stats.busy_ns);
          const double total = busy + static_cast<double>(run.stats.idle_ns);
          char share[32];
          std::snprintf(share, sizeof(share), "%.3f",
                        total > 0 ? busy / total : 1.0);
          counters.AddRow({name, config.label,
                           std::to_string(run.stats.sink_flushes), share});
          counter_rows.push_back(
              {{{"dataset", name},
                {"config", config.label},
                {"flushes", std::to_string(run.stats.sink_flushes)},
                {"busy_share", share}}});
        }
      }
      table.AddRow(std::move(row));
      timing_rows.push_back(std::move(timing));
    }
  }
  bench::EmitTable(table, flags);
  std::printf("\nscheduler counters at T=%u:\n", max_threads);
  counters.Print();

  if (!bench::JsonRecordingAllowed(flags)) return 1;
  if (const std::string json = flags.GetString("json"); !json.empty()) {
    std::FILE* out = std::fopen(json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json.c_str());
      return 1;
    }
    char flag_summary[64];
    std::snprintf(flag_summary, sizeof(flag_summary), "--budget %g", budget);
    std::fprintf(out, "{\n");
    bench::WriteJsonContext(
        out, argv[0], flag_summary,
        "One task runtime: the session pool, whole subtrees claimed in "
        "index order from one shared cursor. busy_share ~1.0 "
        "means no worker starved; below it, the heaviest subtree held "
        "the tail of the run. Thread counts run to num_cpus, so "
        "wall-clock speedup is observable at every T recorded.");
    std::fprintf(out, ",\n  \"thread_counts\": [");
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      std::fprintf(out, "%s%u", i ? ", " : "", thread_counts[i]);
    }
    std::fprintf(out, "],\n");
    WriteRows(out, "timings", timing_rows);
    std::fprintf(out, ",\n");
    WriteRows(out,
              ("scheduler_counters_at_t" + std::to_string(max_threads)).c_str(),
              counter_rows);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n(json written to %s)\n", json.c_str());
  }
  return 0;
}
