// mbebench — one run of one workload of the repository benchmark
// (mbebench/README.md):
//
//   mbebench --workload tuned_parallel --seed 1 --seconds 30 --trace 0
//       --serve-bin <pmbe_serve> --run-dir <dir>
//
// Prints the graphs and their reference results, a host/build stamp, the
// metric table, and as its last stdout line the JSON result
// {"correct", "attempted", "failed", "metrics"}. mbebench/run.py builds
// this binary and the daemon and is the command BENCHMARK.json names.

#include <cstdio>
#include <string>

#include "common.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  mbe::util::FlagParser flags;
  flags.AddString("workload", "",
                  "tuned_parallel or serve_mixed");
  flags.AddInt("seed", 0, "workload seed (0 = the registry seeds)");
  flags.AddDouble("seconds", 0,
                  "minimum measured window, seconds (required; run.py "
                  "passes BENCHMARK.json's run_seconds)");
  flags.AddInt("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.AddString("serve-bin", "", "pmbe_serve executable (serve_mixed)");
  flags.AddString("run-dir", ".", "directory for the daemon's socket");
  flags.Parse(argc, argv);

  if (std::string(MBEBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "mbebench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 MBEBENCH_BUILD_TYPE);
    return 2;
  }
  mbebench::Args args;
  args.workload = flags.GetString("workload");
  if (flags.GetInt("seed") < 0 || flags.GetDouble("seconds") <= 0) {
    std::fprintf(stderr, "mbebench: --seed must be >= 0, --seconds > 0\n");
    return 2;
  }
  args.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  args.seconds = flags.GetDouble("seconds");
  args.trace = flags.GetInt("trace") != 0;
  args.serve_bin = flags.GetString("serve-bin");
  args.run_dir = flags.GetString("run-dir");

  std::printf("stamp %s\n", mbebench::StampJson(args).c_str());
  std::fflush(stdout);
  mbebench::RunReport report;
  bool ran = false;
  if (args.workload == "tuned_parallel") {
    ran = mbebench::RunInProcess(args, &report);
  } else if (args.workload == "serve_mixed") {
    ran = mbebench::RunServed(args, &report);
  } else {
    std::fprintf(stderr, "mbebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "mbebench: workload %s could not be set up\n",
                 args.workload.c_str());
    return 1;
  }
  report.PrintTable();
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
