#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/simd.h"
#include "util/stats.h"
#include "util/timer.h"

namespace mbe::bench {

HostInfo QueryHost() {
  HostInfo info;
  info.num_cpus = std::thread::hardware_concurrency();
  info.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) info.cpu_model = line.substr(start);
      }
      break;
    }
  }
  info.simd_level = simd::DispatchLevelName(simd::ActiveLevel());
#ifdef NDEBUG
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
  return info;
}

std::string JsonQuote(const std::string& text) {
  std::string quoted = "\"";
  for (char ch : text) {
    switch (ch) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", ch);
          quoted += hex;
        } else {
          quoted += ch;
        }
    }
  }
  quoted += '"';
  return quoted;
}

void WriteJsonContext(std::FILE* out, const std::string& executable,
                      const std::string& flags_summary,
                      const std::string& note) {
  char date[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_utc);
  }
  const HostInfo host = QueryHost();
  std::fprintf(out, "  \"context\": {\n");
  std::fprintf(out, "    \"date\": %s,\n", JsonQuote(date).c_str());
  std::fprintf(out, "    \"executable\": %s,\n",
               JsonQuote(executable).c_str());
  std::fprintf(out, "    \"flags\": %s,\n", JsonQuote(flags_summary).c_str());
  std::fprintf(out, "    \"num_cpus\": %u,\n", host.num_cpus);
  std::fprintf(out, "    \"cpu_model\": %s,\n",
               JsonQuote(host.cpu_model).c_str());
  std::fprintf(out, "    \"simd_level\": %s,\n",
               JsonQuote(host.simd_level).c_str());
  std::fprintf(out, "    \"library_build_type\": %s,\n",
               JsonQuote(host.build_type).c_str());
  std::fprintf(out, "    \"note\": %s\n", JsonQuote(note).c_str());
  std::fprintf(out, "  }");
}

bool JsonRecordingAllowed(const util::FlagParser& flags) {
  if (flags.GetString("json").empty()) return true;
  const HostInfo host = QueryHost();
  if (host.build_type == "release") return true;
  if (flags.GetBool("allow_debug")) {
    std::fprintf(stderr,
                 "warning: recording JSON from a %s build (--allow_debug); "
                 "the artifact is tagged \"library_build_type\": \"%s\" and "
                 "must not be committed as a baseline\n",
                 host.build_type.c_str(), host.build_type.c_str());
    return true;
  }
  std::fprintf(stderr,
               "error: refusing to record %s from a %s build — unoptimized "
               "timings are not comparable to the committed BENCH_*.json "
               "baselines. Rebuild with -DCMAKE_BUILD_TYPE=Release, or pass "
               "--allow_debug for a throwaway recording.\n",
               flags.GetString("json").c_str(), host.build_type.c_str());
  return false;
}

RunOutcome TimedRun(const BipartiteGraph& graph,
                    const GraphOptions& graph_options,
                    const RunOptions& options, double budget_seconds,
                    bool subtree_tasks) {
  RunOutcome outcome;
  CountSink counter;

  RunOptions run_options = options;
  run_options.control.deadline_seconds = budget_seconds;

  RunResult run;
  // Bench configs are static and valid; a failure here is a harness bug.
  const util::Status status =
      (subtree_tasks ? EnumerateSubtreeTasks : Enumerate)(
          graph, graph_options, run_options, &counter, &run);
  PMBE_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
  outcome.completed = run.termination == Termination::kComplete;
  outcome.seconds = run.seconds;
  outcome.bicliques = counter.count();
  outcome.stats = run.stats;
  return outcome;
}

std::string TimeCell(const RunOutcome& outcome, double budget_seconds) {
  if (!outcome.completed) {
    return std::string(">").append(util::HumanSeconds(budget_seconds));
  }
  return util::HumanSeconds(outcome.seconds);
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  PMBE_CHECK_MSG(cells.size() == headers_.size(),
                 "row has %zu cells, table has %zu columns", cells.size(),
                 headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s", static_cast<int>(widths[c] + 2), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

bool Table::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write CSV to %s\n", path.c_str());
    return false;
  }
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out << ",";
      const bool needs_quotes =
          row[c].find_first_of(",\"\n") != std::string::npos;
      if (needs_quotes) {
        out << '"';
        for (char ch : row[c]) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << row[c];
      }
    }
    out << "\n";
  };
  write_row(headers_);
  for (const auto& row : rows_) write_row(row);
  return static_cast<bool>(out);
}

void EmitTable(const Table& table, const util::FlagParser& flags) {
  table.Print();
  const std::string csv = flags.GetString("csv");
  if (!csv.empty() && table.WriteCsv(csv)) {
    std::printf("\n(csv written to %s)\n", csv.c_str());
  }
}

void PrintBanner(const std::string& experiment_id, const std::string& title) {
  const HostInfo host = QueryHost();
  std::printf("==============================================================\n");
  std::printf("[%s] %s\n", experiment_id.c_str(), title.c_str());
  std::printf("host: %u cpus, %s, simd %s, %s build\n", host.num_cpus,
              host.cpu_model.c_str(), host.simd_level.c_str(),
              host.build_type.c_str());
  std::printf("datasets: synthetic stand-ins (see DESIGN.md S3); compare\n");
  std::printf("shapes (who wins, by what factor), not absolute numbers.\n");
  std::printf("==============================================================\n");
}

void AddCommonFlags(util::FlagParser* flags) {
  flags->AddString("suite", "default",
                   "dataset suite: default | full | large | comma list");
  flags->AddDouble("scale", 1.0, "shrink factor applied to every dataset");
  flags->AddDouble("budget", 20.0,
                   "per-run time budget in seconds (0 = unlimited)");
  flags->AddInt("threads", 1, "worker threads for parallel-capable runs");
  flags->AddString("csv", "", "also write the table as CSV to this path");
  flags->AddString("json", "",
                   "also record results + host context as JSON to this path "
                   "(the bench/BENCH_*.json artifact format)");
  flags->AddBool("allow_debug", false,
                 "record --json even from a non-release build (refused by "
                 "default: debug timings are not comparable baselines)");
}

std::vector<std::string> ResolveSuite(const std::string& suite) {
  if (suite == "default") return gen::DefaultSuite();
  if (suite == "full") return gen::FullSuite();
  if (suite == "large") {
    std::vector<std::string> names;
    for (const gen::DatasetSpec& spec : gen::AllDatasets()) {
      if (spec.large) names.push_back(spec.name);
    }
    return names;
  }
  // Comma-separated list.
  std::vector<std::string> names;
  std::string current;
  for (char ch : suite) {
    if (ch == ',') {
      if (!current.empty()) names.push_back(current);
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) names.push_back(current);
  for (const std::string& name : names) gen::FindDataset(name);  // validate
  return names;
}

}  // namespace mbe::bench
