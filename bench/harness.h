#ifndef PMBE_BENCH_HARNESS_H_
#define PMBE_BENCH_HARNESS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "api/mbe.h"
#include "gen/registry.h"
#include "util/flags.h"
#include "util/memory.h"

/// \file
/// Shared plumbing for the experiment binaries: timed runs with budgets,
/// fixed-width table printing, and common flags. Every experiment binary
/// (one per table/figure, see DESIGN.md §4) prints a self-describing header
/// plus a paper-style table to stdout and exits 0 even when individual runs
/// hit their time budget (reported as ">budget").

namespace mbe::bench {

/// Host metadata stamped into the bench banner and the recorded JSON
/// artifacts (bench/BENCH_*.json): absolute timings are only comparable
/// against the host that produced them, so every recording carries it.
struct HostInfo {
  unsigned num_cpus = 0;      ///< std::thread::hardware_concurrency()
  std::string cpu_model;      ///< /proc/cpuinfo "model name" ("unknown" off-Linux)
  std::string simd_level;     ///< active kernel dispatch level (scalar/avx2)
  std::string build_type;     ///< "release" (NDEBUG) or "debug"
};

/// Queries the current host/build. Never fails; unknown fields degrade to
/// "unknown" / 0.
HostInfo QueryHost();

/// Quotes + escapes a string as a JSON string literal (including the
/// surrounding double quotes).
std::string JsonQuote(const std::string& text);

/// Writes the shared `"context"` JSON object (indented two spaces, no
/// trailing comma): ISO date, executable, flag summary, the QueryHost()
/// fields, and a free-form note.
void WriteJsonContext(std::FILE* out, const std::string& executable,
                      const std::string& flags_summary,
                      const std::string& note);

/// Gate for recording a `--json` artifact: true when recording should
/// proceed. Debug/unoptimized builds produce timings that are not
/// comparable to the committed bench/BENCH_*.json baselines, so a
/// non-release build is refused (with an explanatory message on stderr)
/// unless `--allow_debug` was passed — in which case a warning is printed
/// and the artifact will carry `"library_build_type": "debug"` for CI to
/// flag. Returns true trivially when `--json` was not requested.
bool JsonRecordingAllowed(const util::FlagParser& flags);

/// Outcome of a single timed enumeration run.
struct RunOutcome {
  bool completed = false;  ///< false when the time/result budget was hit
  double seconds = 0.0;    ///< enumeration wall time
  uint64_t bicliques = 0;  ///< bicliques emitted (possibly truncated)
  EnumStats stats;  ///< stats.peak_charged_bytes: the run's peak working set
};

/// Runs `options` on `graph` counting results, stopping at
/// `budget_seconds` (0 = unlimited), through EnumerateSubtreeTasks when
/// `subtree_tasks` is set and Enumerate otherwise.
RunOutcome TimedRun(const BipartiteGraph& graph,
                    const GraphOptions& graph_options,
                    const RunOptions& options, double budget_seconds,
                    bool subtree_tasks = false);

/// Formats a timing cell: "12.3ms", or ">5s" when the run was truncated.
std::string TimeCell(const RunOutcome& outcome, double budget_seconds);

/// Fixed-width console table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  /// Prints the header, a rule, and all rows, right-padding each column.
  void Print() const;
  /// Writes the table as CSV (RFC-4180-style quoting) for plotting.
  /// Returns false (with a message on stderr) if the file cannot be
  /// written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print + optional CSV dump controlled by the common `--csv` flag.
void EmitTable(const Table& table, const util::FlagParser& flags);

/// Prints the experiment banner (id, what it reproduces, substitution
/// note).
void PrintBanner(const std::string& experiment_id, const std::string& title);

/// Registers the flags common to all experiment binaries (--suite,
/// --scale, --budget, --threads).
void AddCommonFlags(util::FlagParser* flags);

/// Resolves --suite ("default", "full", "large", or a comma list of
/// dataset names) into dataset names.
std::vector<std::string> ResolveSuite(const std::string& suite);

}  // namespace mbe::bench

#endif  // PMBE_BENCH_HARNESS_H_
