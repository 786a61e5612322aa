// F7 — parallel speedup: MBET under 1..N threads with dynamic
// (shared-counter) vs static (pre-partitioned) vs stealing (per-worker
// deques + subtree splitting) scheduling, plus parallel iMBEA (the ParMBE
// stand-in). Expected shape: near-linear dynamic/stealing speedup to the
// core count; static partitioning stalls on skewed datasets because one
// block holds the giant subtrees; stealing additionally splits those giant
// subtrees, which dynamic cannot (visible in the counters table and in the
// worker busy share even when wall-clock parallelism is unavailable).

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

  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw >= 8) thread_counts.push_back(8);
  if (hw > 8) thread_counts.push_back(hw);
  const unsigned max_threads = thread_counts.back();

  bench::PrintBanner("F7", "parallel speedup and scheduling discipline");
  std::vector<std::string> headers = {"dataset", "config"};
  for (unsigned t : thread_counts) headers.push_back("T=" + std::to_string(t));
  bench::Table table(headers);
  // Scheduler counters at the highest thread count: load balance is the
  // signal that survives even on machines without enough cores for
  // wall-clock speedup (busy share ~1.0 means no worker starved).
  bench::Table counters({"dataset", "config", "steals", "splits", "flushes",
                         "busy_share"});

  struct Config {
    const char* label;
    Algorithm algorithm;
    Scheduling scheduling;
  };
  const Config configs[] = {
      {"MBET dynamic", Algorithm::kMbet, Scheduling::kDynamic},
      {"MBET static", Algorithm::kMbet, Scheduling::kStatic},
      {"MBET stealing", Algorithm::kMbet, Scheduling::kStealing},
      {"ParMBE (iMBEA)", Algorithm::kImbea, Scheduling::kDynamic},
      {"ParMBE stealing", Algorithm::kImbea, Scheduling::kStealing},
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
        options.scheduling = config.scheduling;
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
                           std::to_string(run.stats.steals),
                           std::to_string(run.stats.split_tasks),
                           std::to_string(run.stats.sink_flushes), share});
          counter_rows.push_back(
              {{{"dataset", name},
                {"config", config.label},
                {"steals", std::to_string(run.stats.steals)},
                {"splits", std::to_string(run.stats.split_tasks)},
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
        "busy_share ~1.0 means no worker starved; split_tasks > 0 means "
        "monster subtrees were sharded (fires only on datasets whose "
        "subtree work estimate clears ParallelOptions::split_min_work). "
        "On hosts with fewer cores than the thread count (see num_cpus), "
        "workers time-slice and wall-clock speedup is not observable: "
        "multi-thread timings then measure scheduling overhead only, and "
        "the scheduler counters are the scalability signal. Stealing wall "
        "times within ~20% of dynamic bound the runtime overhead of the "
        "deques + splitting + buffered sinks.");
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
