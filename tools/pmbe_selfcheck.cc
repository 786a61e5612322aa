// pmbe_selfcheck — differential fuzzing harness.
//
// Generates random bipartite graphs across a spread of families, sizes and
// densities, and cross-checks every algorithm, every MBET ablation
// configuration, and the session pool against each other (and against
// the brute-force oracle when the graph is small enough). Any mismatch
// prints the offending graph as an edge list and exits non-zero, so a
// failing case can be replayed with `pmbe --input`.
//
//   pmbe_selfcheck --rounds 200 --seed 1
//
// The default configuration runs in about a minute; leave it running with
// a large --rounds for a soak test.
//
// Robustness modes (docs/ROBUSTNESS.md):
//   --chaos        every round also runs under a randomized memory cap, a
//                  watchdog, and (in -DPMBE_FAULT_INJECTION=ON builds) a
//                  probabilistic fault schedule; the run must end typed
//                  with a valid prefix of the reference set.
//   --fault_sweep  deterministic countdown sweep over every registered
//                  fault point (fault builds only): each injection must
//                  yield kMemoryLimit/kInternal/kComplete, never a crash.

#include <algorithm>
#include <cstdio>
#include <string>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace {

using namespace mbe;

BipartiteGraph RandomGraph(util::Rng& rng) {
  const uint64_t family = rng.Below(4);
  const size_t nl = 2 + rng.Below(60);
  const size_t nr = 2 + rng.Below(40);
  const uint64_t seed = rng.Next();
  switch (family) {
    case 0:
      return gen::ErdosRenyi(nl, nr, 0.02 + rng.NextDouble() * 0.4, seed);
    case 1:
      return gen::PowerLaw(nl, nr, (nl + nr) * (1 + rng.Below(6)),
                           0.5 + rng.NextDouble() * 0.5,
                           0.5 + rng.NextDouble() * 0.5, seed);
    case 2: {
      BipartiteGraph base =
          gen::ErdosRenyi(nl, nr, 0.02 + rng.NextDouble() * 0.1, seed);
      // Block sizes in [2, min(side, 7)].
      const size_t bl = 2 + rng.Below(std::min<size_t>(nl, 7) - 1);
      const size_t br = 2 + rng.Below(std::min<size_t>(nr, 7) - 1);
      return gen::PlantBicliques(base, 1 + rng.Below(3), bl, br, seed + 1,
                                 nullptr);
    }
    default:
      return gen::BlockCommunity(nl, nr, 1 + rng.Below(4),
                                 0.3 + rng.NextDouble() * 0.5,
                                 rng.NextDouble() * 0.05, seed);
  }
}

int Fail(const BipartiteGraph& graph, const std::string& what,
         const std::string& detail, uint64_t round) {
  std::fprintf(stderr, "SELF-CHECK FAILURE (round %llu): %s\n  %s\n",
               static_cast<unsigned long long>(round), what.c_str(),
               detail.c_str());
  const std::string dump = "/tmp/pmbe_selfcheck_failure.txt";
  if (SaveEdgeList(graph, dump).ok()) {
    std::fprintf(stderr, "  offending graph written to %s\n", dump.c_str());
  }
  return 1;
}

// True when an interrupted-or-complete run is acceptable under injected
// faults / memory caps: typed termination, nothing else.
bool TypedTermination(Termination t) {
  return t == Termination::kComplete || t == Termination::kMemoryLimit ||
         t == Termination::kInternal;
}

// Runs one enumeration under robustness options and checks the contract:
// OK status, typed termination, every emitted biclique in `reference`.
// Returns a non-empty diagnostic on violation.
std::string CheckedChaosRun(const BipartiteGraph& graph,
                            const std::vector<Biclique>& reference,
                            const RunOptions& options) {
  CollectSink sink;
  RunResult run;
  const util::Status status =
      Enumerate(graph, GraphOptions(), options, &sink, &run);
  if (!status.ok()) {
    return "status not OK: " + status.ToString();
  }
  if (!TypedTermination(run.termination)) {
    return std::string("untyped termination: ") +
           TerminationName(run.termination);
  }
  if (options.max_memory_bytes > 0 &&
      run.stats.peak_charged_bytes > options.max_memory_bytes) {
    return "peak_charged_bytes " +
           std::to_string(run.stats.peak_charged_bytes) + " exceeds cap " +
           std::to_string(options.max_memory_bytes);
  }
  const std::vector<Biclique> got = sink.TakeSorted();
  if (run.termination == Termination::kComplete &&
      got.size() != reference.size()) {
    return "complete run returned " + std::to_string(got.size()) +
           " bicliques, reference has " + std::to_string(reference.size());
  }
  for (const Biclique& b : got) {
    if (!std::binary_search(reference.begin(), reference.end(), b)) {
      return "emitted biclique not in the reference set: " + ToString(b);
    }
  }
  return "";
}

#if defined(PMBE_FAULT_INJECTION)

// Deterministic fault matrix: for every registered point, measure how
// often the site fires on a fixed graph, then sweep countdowns across that
// range. Returns 0 on success.
int RunFaultSweep() {
  auto& registry = util::FaultRegistry::Global();
  const BipartiteGraph graph = gen::ErdosRenyi(24, 24, 0.4, 7);
  CollectSink reference_sink;
  if (!Enumerate(graph, GraphOptions(), RunOptions(), &reference_sink,
                 nullptr)
           .ok()) {
    return 1;
  }
  const std::vector<Biclique> reference = reference_sink.TakeSorted();

  RunOptions options;
  options.threads = 2;
  options.watchdog_stall_seconds = 1;  // outlasts the worker.stall nap

  for (const char* point : util::kFaultPoints) {
    if (std::string(point) == "loader.line") {
      // Exercised through the loader, not Enumerate.
      registry.ArmCountdown(point, 1);
      auto loaded = ParseEdgeListText("0 0\n1 1\n");
      registry.Disarm();
      if (loaded.ok()) {
        std::fprintf(stderr,
                     "FAULT-SWEEP FAILURE: loader.line injection was not "
                     "surfaced as an error\n");
        return 1;
      }
      continue;
    }
    // Pass 1: count how often this site fires (armed, unreachable nth).
    registry.ResetHits();
    registry.ArmCountdown(point, ~uint64_t{0});
    {
      // The armed-but-unreachable countdown must not fail the run.
      CountSink sink;
      RunResult run;
      if (!Enumerate(graph, GraphOptions(), options, &sink, &run).ok() ||
          !run.complete()) {
        std::fprintf(stderr,
                     "FAULT-SWEEP FAILURE: point %s: armed-idle run did not "
                     "complete\n",
                     point);
        return 1;
      }
    }
    const uint64_t hits = registry.hits(point);
    registry.Disarm();
    // Pass 2: sweep the countdown through the observed range.
    const uint64_t sweep = std::min<uint64_t>(hits, 6);
    for (uint64_t nth = 1; nth <= sweep; ++nth) {
      registry.ArmCountdown(point, nth);
      const std::string violation = CheckedChaosRun(graph, reference, options);
      registry.Disarm();
      if (!violation.empty()) {
        std::fprintf(stderr,
                     "FAULT-SWEEP FAILURE: point %s countdown %llu: %s\n",
                     point, static_cast<unsigned long long>(nth),
                     violation.c_str());
        return 1;
      }
    }
    std::printf("fault sweep: %-14s %llu site hits, %llu countdowns OK\n",
                point, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(sweep));
  }
  std::printf("fault sweep passed (every registered point, typed "
              "terminations, valid prefixes)\n");
  return 0;
}

#endif  // PMBE_FAULT_INJECTION

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt("rounds", 150, "number of random graphs to check");
  flags.AddInt("seed", 1, "master seed");
  flags.AddBool("verbose", false, "log each round");
  flags.AddBool("chaos", false,
                "also run each round under a random memory cap, a watchdog, "
                "and (fault builds) a probabilistic fault schedule");
  flags.AddBool("fault_sweep", false,
                "run the deterministic countdown sweep over every fault "
                "point, then exit (needs -DPMBE_FAULT_INJECTION=ON)");
  flags.Parse(argc, argv);

  if (flags.GetBool("fault_sweep")) {
#if defined(PMBE_FAULT_INJECTION)
    return RunFaultSweep();
#else
    std::fprintf(stderr,
                 "error: --fault_sweep requires a -DPMBE_FAULT_INJECTION=ON "
                 "build (fault points are compiled out of this binary)\n");
    return 2;
#endif
  }
#if !defined(PMBE_FAULT_INJECTION)
  if (flags.GetBool("chaos")) {
    std::fprintf(stderr,
                 "note: fault points are compiled out of this binary; "
                 "--chaos covers memory caps and watchdogs only\n");
  }
#endif

  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  const int64_t rounds = flags.GetInt("rounds");
  util::WallTimer timer;
  uint64_t total_bicliques = 0;

  for (int64_t round = 0; round < rounds; ++round) {
    BipartiteGraph graph = RandomGraph(rng);

    // Reference result from MBET defaults.
    CollectSink reference_sink;
    if (util::Status status = Enumerate(graph, GraphOptions(), RunOptions(),
                                        &reference_sink, nullptr);
        !status.ok()) {
      return Fail(graph, "reference enumeration failed",
                  status.ToString().c_str(), round);
    }
    const std::vector<Biclique> reference = reference_sink.TakeSorted();
    total_bicliques += reference.size();

    // Structural validity of every reference biclique.
    const std::string validity = ValidateResultSet(graph, reference);
    if (!validity.empty()) {
      return Fail(graph, "MBET produced an invalid result set", validity,
                  round);
    }

    // Oracle check when feasible.
    if (graph.num_right() <= 14 || graph.num_left() <= 14) {
      BipartiteGraph oracle_view =
          graph.num_right() <= 14 ? graph : graph.Swapped();
      std::vector<Biclique> expected = BruteForceMbe(oracle_view);
      if (graph.num_right() > 14) {
        for (Biclique& b : expected) std::swap(b.left, b.right);
        std::sort(expected.begin(), expected.end());
      }
      const std::string diff = DiffResultSets(expected, reference);
      if (!diff.empty()) {
        return Fail(graph, "MBET disagrees with the brute-force oracle", diff,
                    round);
      }
    }

    // Differential checks: fingerprints across engines/configurations.
    FingerprintSink ref_print;
    for (const Biclique& b : reference) ref_print.Emit(b.left, b.right);

    struct Config {
      const char* label;
      RunOptions options;
      GraphOptions graph_options = GraphOptions();
      bool subtree_tasks = false;  ///< EnumerateSubtreeTasks, not Enumerate
    };
    std::vector<Config> configs;
    for (Algorithm algorithm : {Algorithm::kMbetM, Algorithm::kMbea,
                                Algorithm::kImbea, Algorithm::kBbk}) {
      RunOptions o;
      o.algorithm = algorithm;
      configs.push_back({AlgorithmName(algorithm), o});
    }
    {
      // The paper's ooMBEA-lite baseline.
      RunOptions o;
      o.algorithm = Algorithm::kImbea;
      GraphOptions g;
      g.order = VertexOrder::kUnilateralAsc;
      configs.push_back(
          {"ooMBEA-lite (subtree-local iMBEA, unilateral order)", o, g, true});
    }
    {
      RunOptions o;
      o.algorithm = Algorithm::kBbk;
      configs.push_back({"BBK", o});
    }
    {
      RunOptions o;
      o.algorithm = Algorithm::kBbk;
      o.threads = 4;
      configs.push_back({"BBK x4", o});
    }
    {
      RunOptions o;
      o.mbet.use_trie = false;
      o.mbet.use_aggregation = false;
      configs.push_back({"MBET w/o trie+agg", o});
    }
    {
      RunOptions o;
      o.mbet.prune_q = false;
      GraphOptions g;
      g.order = VertexOrder::kRandom;
      g.seed = rng.Next();
      configs.push_back({"MBET random order w/o Q-prune", o, g});
    }
    {
      // Bitmap classification forced onto every eligible node. Disabling
      // the trie removes the higher-priority classifier so the bitmap
      // kernels actually run everywhere, not just on trie-rejected nodes.
      RunOptions o;
      o.mbet.bitmap_density = 0.0;
      o.mbet.use_trie = false;
      configs.push_back({"MBET forced bitmap w/o trie", o});
    }
    {
      RunOptions o;
      o.mbet.bitmap_density = 0.0;
      configs.push_back({"MBET forced bitmap", o});
    }
    {
      RunOptions o;
      o.mbet.bitmap_density = 2.0;
      configs.push_back({"MBET bitmap disabled", o});
    }
    {
      // Whatever the tuner picks must stay output-identical.
      RunOptions o;
      o.auto_tune = true;
      configs.push_back({"MBET auto-tuned", o});
    }
    {
      RunOptions o;
      o.threads = 4;
      configs.push_back({"MBET x4", o});
    }
    // MineLMBC is exponential-cost on its own; keep it to small graphs.
    if (graph.num_edges() <= 400) {
      RunOptions o;
      o.algorithm = Algorithm::kMineLmbc;
      configs.push_back({"MineLMBC", o});
    }

    for (const Config& config : configs) {
      FingerprintSink sink;
      if (util::Status status =
              (config.subtree_tasks ? EnumerateSubtreeTasks : Enumerate)(
                  graph, config.graph_options, config.options, &sink,
                  nullptr);
          !status.ok()) {
        return Fail(graph, "engine run failed", status.ToString().c_str(),
                    round);
      }
      if (sink.Digest() != ref_print.Digest() ||
          sink.count() != reference.size()) {
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "%s: %llu bicliques vs reference %zu", config.label,
                      static_cast<unsigned long long>(sink.count()),
                      reference.size());
        return Fail(graph, "engine disagreement", detail, round);
      }
    }

    // Run-control check: a budget-truncated run must stop with the right
    // termination reason and emit a valid prefix of the reference set
    // (exercises the cancellation path under sanitizers every round).
    if (reference.size() >= 4) {
      const uint64_t cap = reference.size() / 2;
      for (unsigned threads : {1u, 4u}) {
        RunOptions o;
        o.threads = threads;
        o.control.max_results = cap;
        CollectSink truncated_sink;
        RunResult run;
        const util::Status status =
            Enumerate(graph, GraphOptions(), o, &truncated_sink, &run);
        if (!status.ok()) {
          return Fail(graph, "controlled run rejected valid options",
                      status.ToString(), round);
        }
        const std::vector<Biclique> prefix = truncated_sink.TakeSorted();
        char detail[160];
        if (run.termination != Termination::kBudget ||
            prefix.size() != cap) {
          std::snprintf(detail, sizeof(detail),
                        "threads=%u cap=%llu: got %zu bicliques, "
                        "termination=%s",
                        threads, static_cast<unsigned long long>(cap),
                        prefix.size(), TerminationName(run.termination));
          return Fail(graph, "result budget not honored", detail, round);
        }
        for (const Biclique& b : prefix) {
          if (!std::binary_search(reference.begin(), reference.end(), b)) {
            std::snprintf(detail, sizeof(detail),
                          "threads=%u: emitted biclique not in the "
                          "reference set: %s",
                          threads, ToString(b).c_str());
            return Fail(graph, "truncated run emitted an invalid prefix",
                        detail, round);
          }
        }
      }
    }

    // Chaos pass: the same graph under a randomized memory cap, a
    // watchdog, and (fault builds) a probabilistic fault schedule. The
    // contract is weaker than the differential checks — the run may stop
    // early — but it must stop *typed* and with a valid prefix.
    if (flags.GetBool("chaos")) {
      RunOptions chaos;
      chaos.threads = 1 + rng.Below(4);
      chaos.watchdog_stall_seconds = 1;
      // Caps from starving (16 KiB) to comfortable (2 MiB).
      chaos.max_memory_bytes = uint64_t{1} << (14 + rng.Below(8));
#if defined(PMBE_FAULT_INJECTION)
      util::FaultRegistry::Global().ArmProbability(0.01, rng.Next());
#endif
      const std::string violation = CheckedChaosRun(graph, reference, chaos);
#if defined(PMBE_FAULT_INJECTION)
      util::FaultRegistry::Global().Disarm();
#endif
      if (!violation.empty()) {
        return Fail(graph, "chaos run violated the robustness contract",
                    violation, round);
      }
    }

    if (flags.GetBool("verbose")) {
      std::printf("round %lld: %s -> %zu bicliques OK\n",
                  static_cast<long long>(round), graph.Summary().c_str(),
                  reference.size());
    }
  }

  std::printf(
      "self-check passed: %lld rounds, %llu bicliques cross-checked, %.1fs "
      "(kernel dispatch: %s)\n",
      static_cast<long long>(rounds),
      static_cast<unsigned long long>(total_bicliques), timer.Seconds(),
      simd::DispatchLevelName(simd::ActiveLevel()));
  return 0;
}
