// pmbe — command-line maximal biclique enumeration.
//
// Loads a bipartite graph from a file (plain 0-based edge list or
// KONECT-style 1-based), or generates a synthetic stand-in from the
// registry, then enumerates maximal bicliques with the selected algorithm
// and reports counts, timing, and counters. Optionally writes all
// bicliques to a file (one `L | R` line each).
//
// Examples:
//   pmbe --input graph.txt
//   pmbe --dataset BX --algorithm imbea --timeout_s 30
//   pmbe --input out.konect --format konect --threads 8 --output result.txt
//   pmbe --dataset GH --max-biclique --min-left 3 --min-right 3
//   pmbe --dataset TVT --timeout_s 1 --progress_every_s 0.2
//
// Runs are interruptible: Ctrl-C requests cooperative cancellation (the
// bicliques emitted so far are kept), and --timeout_s / --max_results /
// --max_nodes bound the run, reporting how it terminated.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "api/mbe.h"
#include "gen/registry.h"
#include "graph/graph_io.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

// Set by the SIGINT handler; polled cooperatively by the enumerators.
std::atomic<bool> g_interrupted{false};

void HandleSigint(int) { g_interrupted.store(true); }

// Set by the SIGTERM handler of checkpointing runs: stop with a final
// snapshot and Termination::kCheckpointed (the durable analog of Ctrl-C).
std::atomic<bool> g_checkpoint_requested{false};

void HandleSigterm(int) { g_checkpoint_requested.store(true); }

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) parts.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

// --merge_checkpoints mode: fold per-process shard snapshots into one and
// report the merged frontier digest (no graph needed). Returns the process
// exit code.
int MergeCheckpoints(const std::string& list, const std::string& out_path) {
  using namespace mbe;
  std::vector<snapshot::FrontierSnapshot> shards;
  for (const std::string& path : SplitCommas(list)) {
    util::StatusOr<snapshot::FrontierSnapshot> snap =
        snapshot::ReadSnapshotFile(path);
    if (!snap.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   snap.status().ToString().c_str());
      return 1;
    }
    shards.push_back(std::move(snap).value());
  }
  util::StatusOr<snapshot::FrontierSnapshot> merged =
      snapshot::MergeSnapshots(shards);
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  if (!out_path.empty()) {
    if (util::Status written =
            snapshot::WriteSnapshotFile(out_path, merged.value());
        !written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  const snapshot::TaskDigest digest = merged.value().MergedDigest();
  std::printf("merged %zu shards: %llu tasks completed, %llu bicliques\n",
              shards.size(),
              static_cast<unsigned long long>(merged.value().completed.size()),
              static_cast<unsigned long long>(digest.count));
  std::printf("frontier digest: 0x%016llx\n",
              static_cast<unsigned long long>(digest.Value()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  flags.AddString("input", "", "path to an edge-list file");
  flags.AddString("format", "edgelist", "input format: edgelist | konect");
  flags.AddString("dataset", "",
                  "generate a registry stand-in instead of loading a file");
  flags.AddDouble("scale", 1.0, "scale for --dataset");
  flags.AddString("algorithm", "mbet",
                  "mbet | mbetm | minelmbc | mbea | imbea | bbk (ooMBEA-lite "
                  "= imbea + --order unilateral + --threads > 1)");
  flags.AddString("order", "deg-asc",
                  "none | deg-asc | deg-desc | twohop | unilateral | random");
  flags.AddInt("threads", 1, "worker threads (mbet/mbetm/mbea/imbea/bbk)");
  flags.AddDouble("timeout_s", 0,
                  "wall-clock deadline in seconds (0 = none)");
  flags.AddInt("max_results", 0, "stop after this many bicliques (0 = none)");
  flags.AddInt("max_nodes", 0,
               "stop after ~this many enumeration nodes (0 = none)");
  flags.AddDouble("progress_every_s", 0,
                  "print progress to stderr every this many seconds (0 = off)");
  flags.AddInt("max_memory_mb", 0,
               "hard cap on accounted enumeration memory in MiB (0 = none); "
               "past 75% the run degrades gracefully, past the cap it stops "
               "with a valid result prefix");
  flags.AddDouble("watchdog_s", 0,
                  "parallel worker stall bound in seconds (0 = off): a worker "
                  "silent this long stops the run instead of hanging it");
  flags.AddString("checkpoint_path", "",
                  "persist the task frontier to this file periodically and at "
                  "drain (durable runs). SIGTERM then stops with a final "
                  "snapshot");
  flags.AddDouble("checkpoint_every_s", 30,
                  "seconds between periodic snapshots of a checkpointing run "
                  "(0 = only the final snapshot at drain)");
  flags.AddBool("resume", false,
                "resume from the snapshot at --checkpoint_path, re-running "
                "only tasks it records as incomplete");
  flags.AddString("process_shard", "",
                  "'i/N': enumerate only hash shard i of N of the seed space "
                  "(multi-process runs; combine with --merge_checkpoints)");
  flags.AddString("merge_checkpoints", "",
                  "comma-separated per-shard snapshot files: merge them, "
                  "print the combined frontier digest (optionally writing the "
                  "merged snapshot to --checkpoint_path), and exit");
  flags.AddString("fault", "",
                  "arm a fault schedule, e.g. 'arena.grow:3' or "
                  "'*:p=0.01:seed=7' (needs a -DPMBE_FAULT_INJECTION=ON "
                  "build; see docs/ROBUSTNESS.md)");
  flags.AddInt("min-left", 1, "only bicliques with |L| >= this");
  flags.AddInt("min-right", 1, "only bicliques with |R| >= this");
  flags.AddBool("tune", false,
                "auto-tune the engine (MBET or BBK) from the graph profile, "
                "overriding --algorithm mbet|bbk (docs/TUNING.md); the "
                "decision prints under --stats");
  flags.AddBool("max-biclique", false,
                "find one maximum-edge biclique instead of enumerating");
  flags.AddString("output", "", "write bicliques to this file");
  flags.AddBool("stats", true, "print enumeration counters");
  flags.Parse(argc, argv);

  // --- Merge mode: no graph, no run ---------------------------------------
  if (!flags.GetString("merge_checkpoints").empty()) {
    return MergeCheckpoints(flags.GetString("merge_checkpoints"),
                            flags.GetString("checkpoint_path"));
  }

  // --- Integer ranges -----------------------------------------------------
  // The int flags land in unsigned fields below; a negative or oversized
  // value would wrap (--threads -1 asking for 2^32 - 1 workers), so each
  // range is checked before anything is loaded or started.
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();
  for (const util::Status& range : {
           flags.CheckIntRange("threads", 1, kMaxU32),
           flags.CheckIntRange("min-left", 1, kMaxU32),
           flags.CheckIntRange("min-right", 1, kMaxU32),
           flags.CheckIntRange("max_results", 0, kMaxI64),
           flags.CheckIntRange("max_nodes", 0, kMaxI64),
           flags.CheckIntRange("max_memory_mb", 0, kMaxI64 >> 20),
       }) {
    if (!range.ok()) {
      std::fprintf(stderr, "error: %s\n", range.ToString().c_str());
      return 2;
    }
  }

  // --- Load or generate the graph ---------------------------------------
  BipartiteGraph graph;
  if (!flags.GetString("dataset").empty()) {
    graph = gen::Materialize(gen::FindDataset(flags.GetString("dataset")),
                             flags.GetDouble("scale"));
  } else if (!flags.GetString("input").empty()) {
    auto loaded = flags.GetString("format") == "konect"
                      ? LoadKonect(flags.GetString("input"))
                      : LoadEdgeList(flags.GetString("input"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    std::fprintf(stderr, "error: pass --input or --dataset (see --help)\n");
    return 2;
  }
  std::printf("graph: %s\n", graph.Summary().c_str());

  GraphOptions graph_options;
  RunOptions options;
  if (util::Status parsed =
          ParseAlgorithm(flags.GetString("algorithm"), &options.algorithm);
      !parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    return 2;
  }
  graph_options.order = ParseVertexOrder(flags.GetString("order"));
  options.threads = static_cast<unsigned>(flags.GetInt("threads"));
  options.mbet.min_left = static_cast<uint32_t>(flags.GetInt("min-left"));
  options.mbet.min_right = static_cast<uint32_t>(flags.GetInt("min-right"));
  options.auto_tune = flags.GetBool("tune");

  // --- Run control --------------------------------------------------------
  // Negative values would be silently reinterpreted by the unsigned /
  // fallback plumbing below; reject them up front.
  if (flags.GetDouble("timeout_s") < 0 ||
      flags.GetDouble("progress_every_s") < 0) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --timeout_s / --progress_every_s "
                 "must be >= 0\n");
    return 2;
  }
  std::signal(SIGINT, HandleSigint);
  options.control.cancel = &g_interrupted;
  options.control.deadline_seconds = flags.GetDouble("timeout_s");
  options.control.max_results =
      static_cast<uint64_t>(flags.GetInt("max_results"));
  options.control.max_nodes_expanded =
      static_cast<uint64_t>(flags.GetInt("max_nodes"));
  if (flags.GetDouble("progress_every_s") > 0) {
    options.control.progress_every_s = flags.GetDouble("progress_every_s");
    options.control.progress = [](const RunProgress& p) {
      std::fprintf(stderr,
                   "[%7.2fs] %llu bicliques, %llu nodes expanded\n",
                   p.elapsed_seconds,
                   static_cast<unsigned long long>(p.results),
                   static_cast<unsigned long long>(p.stats.nodes_expanded));
    };
  }
  // --- Robustness: memory cap, watchdog, fault injection ------------------
  if (flags.GetDouble("watchdog_s") < 0) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --watchdog_s must be >= 0\n");
    return 2;
  }
  options.max_memory_bytes =
      static_cast<uint64_t>(flags.GetInt("max_memory_mb")) * (1 << 20);
  options.watchdog_stall_seconds = flags.GetDouble("watchdog_s");
  // --- Durable checkpointing ----------------------------------------------
  if (flags.GetDouble("checkpoint_every_s") < 0) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --checkpoint_every_s must be "
                 ">= 0\n");
    return 2;
  }
  options.checkpoint.path = flags.GetString("checkpoint_path");
  options.checkpoint.every_s = flags.GetDouble("checkpoint_every_s");
  options.checkpoint.resume = flags.GetBool("resume");
  if (!flags.GetString("process_shard").empty()) {
    unsigned shard = 0, count = 0;
    if (std::sscanf(flags.GetString("process_shard").c_str(), "%u/%u", &shard,
                    &count) != 2) {
      std::fprintf(stderr,
                   "error: INVALID_ARGUMENT: --process_shard must be 'i/N' "
                   "(got '%s')\n",
                   flags.GetString("process_shard").c_str());
      return 2;
    }
    options.checkpoint.shard_index = shard;
    options.checkpoint.shard_count = count;
  }
  if (options.checkpoint.enabled()) {
    // SIGTERM = "stop durably": drain in-flight tasks, write a final
    // snapshot, and report Termination::kCheckpointed so a later --resume
    // run picks up exactly the incomplete remainder.
    std::signal(SIGTERM, HandleSigterm);
    options.checkpoint.checkpoint_stop = &g_checkpoint_requested;
  }
  if (!flags.GetString("fault").empty()) {
#if !defined(PMBE_FAULT_INJECTION)
    std::fprintf(stderr,
                 "error: --fault requires a -DPMBE_FAULT_INJECTION=ON build "
                 "(fault points are compiled out of this binary)\n");
    return 2;
#else
    if (util::Status armed =
            util::FaultRegistry::Global().ArmSpec(flags.GetString("fault"));
        !armed.ok()) {
      std::fprintf(stderr, "error: %s\n", armed.ToString().c_str());
      return 2;
    }
#endif
  }
  if (util::Status valid = options.Validate(); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }

  // --- Maximum-biclique mode ---------------------------------------------
  if (flags.GetBool("max-biclique")) {
    util::WallTimer timer;
    Biclique best;
    RunResult run;
    if (util::Status found =
            FindMaximumBiclique(graph, graph_options, options, &best, &run);
        !found.ok()) {
      std::fprintf(stderr, "error: %s\n", found.ToString().c_str());
      return 2;
    }
    if (!run.complete()) {
      std::printf("search stopped early (%s); best incumbent so far:\n",
                  TerminationName(run.termination));
    }
    if (best.left.empty()) {
      std::printf("no biclique satisfies the constraints (%.3fs)\n",
                  timer.Seconds());
      return 0;
    }
    std::printf("maximum biclique%s: %zu x %zu = %zu edges (%.3fs)\n",
                run.complete() ? "" : " (lower bound)", best.left.size(),
                best.right.size(), best.num_edges(), timer.Seconds());
    std::printf("%s\n", ToString(best).c_str());
    return 0;
  }

  // --- Enumeration --------------------------------------------------------
  std::ofstream out;
  if (!flags.GetString("output").empty()) {
    out.open(flags.GetString("output"));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags.GetString("output").c_str());
      return 1;
    }
  }

  CountSink counter;
  CallbackSink writer([&](std::span<const VertexId> l,
                          std::span<const VertexId> r) {
    counter.Emit(l, r);
    if (out.is_open()) {
      for (size_t i = 0; i < l.size(); ++i) out << (i ? " " : "") << l[i];
      out << " | ";
      for (size_t i = 0; i < r.size(); ++i) out << (i ? " " : "") << r[i];
      out << "\n";
    }
  });

  RunResult run;
  if (util::Status ran =
          Enumerate(graph, graph_options, options, &writer, &run);
      !ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.ToString().c_str());
    return 2;
  }
  // A failed write (disk full) only sets the stream's error state; a
  // result file missing bicliques must not pass for a complete one.
  if (out.is_open() && !out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 flags.GetString("output").c_str());
    return 1;
  }

  const bool truncated = !run.complete();
  if (truncated) {
    std::printf("run stopped early: %s%s%s\n",
                TerminationName(run.termination),
                run.message.empty() ? "" : " — ", run.message.c_str());
  }
  std::printf("%s%llu maximal bicliques in %.3fs (preprocess %.3fs)\n",
              truncated ? ">= " : "",
              static_cast<unsigned long long>(counter.count()), run.seconds,
              run.preprocess_seconds);
  if (options.checkpoint.enabled()) {
    std::printf("frontier digest: 0x%016llx (%llu tasks completed, %llu "
                "pending)\n",
                static_cast<unsigned long long>(run.frontier_digest),
                static_cast<unsigned long long>(run.frontier_completed),
                static_cast<unsigned long long>(run.frontier_pending));
  }
  if (flags.GetBool("stats")) {
    // Every nonzero counter under its EnumStats field name (a counter the
    // listing leaves out is 0), then the derived and decoded lines.
    const EnumStats& s = run.stats;
    for (const EnumStatsField& field : kEnumStatsFields) {
      if (const uint64_t value = s.*field.member; value != 0) {
        std::printf("  %-28s %llu\n", (std::string(field.name) + ":").c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
    if (s.local_scan_size > 0) {
      std::printf("  %-28s %.3f (%s of %s probes)\n", "trie probe ratio:",
                  static_cast<double>(s.trie_probes) /
                      static_cast<double>(s.local_scan_size),
                  util::HumanCount(static_cast<double>(s.trie_probes)).c_str(),
                  util::HumanCount(static_cast<double>(s.local_scan_size))
                      .c_str());
    }
    const double busy = static_cast<double>(s.busy_ns);
    const double total = busy + static_cast<double>(s.idle_ns);
    if (total > 0) {
      std::printf("  %-28s %.1f%% (busy %.3fs, idle %.3fs)\n",
                  "worker busy share:", 100.0 * busy / total, busy * 1e-9,
                  static_cast<double>(s.idle_ns) * 1e-9);
    }
    std::printf("  %-28s %s\n", "kernel dispatch:",
                simd::DispatchLevelName(
                    static_cast<simd::DispatchLevel>(s.kernel_dispatch)));
    if (s.auto_tuned != 0) {
      std::printf("  %-28s rule '%s' -> engine %s\n", "auto-tune:",
                  TunerRuleName(static_cast<TunerRule>(s.tuner_rule)),
                  s.tuned_algorithm != 0
                      ? TunerEngineName(
                            static_cast<TunerEngine>(s.tuned_algorithm))
                      : "(pinned)");
    }
  }
  return 0;
}
