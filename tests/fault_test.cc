// Robustness tests (docs/ROBUSTNESS.md): hard memory budgets with graceful
// degradation, sink-failure containment, the worker watchdog, run-control ×
// budget interactions, and — in fault builds (-DPMBE_FAULT_INJECTION=ON) —
// deterministic fault-injection sweeps over every registered fault point.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "api/mbe.h"
#include "api/session_pool.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "util/fault.h"
#include "util/memory.h"

namespace mbe {
namespace {

BipartiteGraph MediumGraph() { return gen::ErdosRenyi(24, 24, 0.4, 7); }

// 2^40 - 2 maximal bicliques: no host finishes a full enumeration, so a
// run on it is still going when a deadline, cancel or memory cap arrives —
// exactly the situation those limits exist for.
BipartiteGraph WorstCaseGraph() { return gen::Crown(40); }

// Used by the fault-build sweeps only; regular builds compile it out of use.
[[maybe_unused]] std::vector<Biclique> ReferenceSet(const BipartiteGraph& graph) {
  CollectSink sink;
  EXPECT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  return sink.TakeSorted();
}

uint64_t ReferenceDigest(const BipartiteGraph& graph) {
  FingerprintSink sink;
  EXPECT_TRUE(
      Enumerate(graph, GraphOptions(), RunOptions(), &sink, nullptr).ok());
  return sink.Digest();
}

// Interruption contract: everything emitted must be a genuine maximal
// biclique of the input — a valid prefix, never partial garbage.
void ExpectAllMaximal(const BipartiteGraph& graph, CollectSink& sink) {
  for (const Biclique& b : sink.TakeSorted()) {
    EXPECT_TRUE(IsMaximalBiclique(graph, b)) << ToString(b);
  }
}

// A consumer that fails: throws once the Nth biclique arrives. Emissions
// before the throw are delivered normally.
class ThrowAfterSink : public ResultSink {
 public:
  explicit ThrowAfterSink(uint64_t fail_at) : fail_at_(fail_at) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n >= fail_at_) throw std::runtime_error("consumer failed");
    collected_.Emit(left, right);
  }

  uint64_t delivered() const { return collected_.results().size(); }
  CollectSink& collected() { return collected_; }

 private:
  uint64_t fail_at_;
  std::atomic<uint64_t> seen_{0};
  CollectSink collected_;
};

// --- MemoryBudget unit tests (local instance; the global one is shared) ---

TEST(MemoryBudgetTest, ChargeReleaseAndPeakStayUnderCap) {
  util::MemoryBudget budget;
  budget.BeginRun(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_EQ(budget.charged(), 600u);
  EXPECT_EQ(budget.peak(), 600u);

  // A declined charge is rolled back and latches exhaustion; the peak
  // provably never exceeds the cap.
  EXPECT_FALSE(budget.TryCharge(500));
  EXPECT_EQ(budget.charged(), 600u);
  EXPECT_LE(budget.peak(), 1000u);
  EXPECT_TRUE(budget.exhausted());

  budget.Release(600);
  EXPECT_EQ(budget.charged(), 0u);
  budget.EndRun();
}

TEST(MemoryBudgetTest, SoftFractionTurnsOnPressure) {
  util::MemoryBudget budget;
  budget.BeginRun(1000);
  ASSERT_TRUE(budget.TryCharge(700));  // below 75%
  EXPECT_FALSE(budget.UnderPressure());
  ASSERT_TRUE(budget.TryCharge(100));  // 800 >= 750
  EXPECT_TRUE(budget.UnderPressure());
  EXPECT_FALSE(budget.exhausted());

  const uint64_t before = budget.degradations();
  budget.NoteDegradation();
  EXPECT_EQ(budget.degradations(), before + 1);
  budget.Release(800);
  budget.EndRun();
}

TEST(MemoryBudgetTest, NoCapNeverDeclinesOrPressures) {
  util::MemoryBudget budget;
  budget.BeginRun(0);
  EXPECT_TRUE(budget.TryCharge(uint64_t{1} << 40));
  EXPECT_FALSE(budget.UnderPressure());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.peak(), uint64_t{1} << 40);
  budget.Release(uint64_t{1} << 40);
}

TEST(MemoryBudgetTest, BeginRunClearsExhaustionLatch) {
  util::MemoryBudget budget;
  budget.BeginRun(10);
  budget.ForceExhaust();
  EXPECT_TRUE(budget.exhausted());
  budget.BeginRun(10);
  EXPECT_FALSE(budget.exhausted());
  budget.EndRun();
}

// --- Hard cap end-to-end -------------------------------------------------

class MemoryLimitTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MemoryLimitTest, TinyCapStopsWithValidPrefixUnderCap) {
  const BipartiteGraph graph = WorstCaseGraph();
  RunOptions options;
  options.threads = GetParam();
  options.max_memory_bytes = 1 << 12;  // 4 KiB: certain to be exceeded
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kMemoryLimit)
      << TerminationName(run.termination);
  EXPECT_LE(run.stats.peak_charged_bytes, options.max_memory_bytes);
  ExpectAllMaximal(graph, sink);
}

INSTANTIATE_TEST_SUITE_P(Threads, MemoryLimitTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(MemoryLimitTest, NoCapAccountingChangesNoResults) {
  const BipartiteGraph graph = MediumGraph();
  const uint64_t reference = ReferenceDigest(graph);

  // A cap far above the working set: the controller and the accounting run
  // (peak is reported) but no pressure, no degradation, no stop.
  RunOptions options;
  options.max_memory_bytes = uint64_t{1} << 40;
  FingerprintSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_EQ(sink.Digest(), reference);
  EXPECT_GT(run.stats.peak_charged_bytes, 0u);
  EXPECT_EQ(run.stats.degradations, 0u);
}

TEST(MemoryLimitTest, CapSweepIsCompleteOrValidPrefix) {
  const BipartiteGraph graph = MediumGraph();
  const uint64_t reference = ReferenceDigest(graph);
  // Caps from starving to comfortable: each run must either finish with
  // identical results (degraded or not) or stop at the cap with a valid
  // prefix — never crash, never return garbage.
  for (uint64_t cap : {uint64_t{1} << 12, uint64_t{1} << 16, uint64_t{1} << 20,
                       uint64_t{1} << 30}) {
    RunOptions options;
    options.max_memory_bytes = cap;
    CollectSink sink;
    RunResult run;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), options, &sink, &run).ok()) << cap;
    EXPECT_LE(run.stats.peak_charged_bytes, cap);
    if (run.termination == Termination::kComplete) {
      FingerprintSink digest;
      for (const Biclique& b : sink.TakeSorted()) {
        digest.Emit(b.left, b.right);
      }
      EXPECT_EQ(digest.Digest(), reference) << "cap=" << cap;
    } else {
      EXPECT_EQ(run.termination, Termination::kMemoryLimit) << cap;
      ExpectAllMaximal(graph, sink);
    }
  }
}

// --- Sink-failure containment ---------------------------------------------

TEST(ContainmentTest, ThrowingSinkUnderDefaultOptionsIsInternalTermination) {
  // Default (inert) options still run under the session's controller, so
  // inline at one thread and on the session pool at four a throwing sink
  // ends the run OK as kInternal with a message, keeping the valid prefix
  // delivered before the throw.
  const BipartiteGraph graph = MediumGraph();
  for (unsigned threads : {1u, 4u}) {
    RunOptions options;
    options.threads = threads;
    ThrowAfterSink sink(4);
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok())
        << "threads=" << threads;
    EXPECT_EQ(run.termination, Termination::kInternal) << "threads=" << threads;
    EXPECT_NE(run.message.find("consumer failed"), std::string::npos)
        << run.message;
    EXPECT_EQ(sink.delivered(), 3u) << "threads=" << threads;
    ExpectAllMaximal(graph, sink.collected());
  }
}

TEST(ContainmentTest, ThrowingSinkWithControllerIsInternalTermination) {
  // An armed deadline changes nothing about containment: same typed end,
  // same prefix as under inert options.
  const BipartiteGraph graph = MediumGraph();
  RunOptions options;
  options.control.deadline_seconds = 3600;
  ThrowAfterSink sink(4);
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kInternal);
  EXPECT_FALSE(run.message.empty());
  EXPECT_EQ(sink.delivered(), 3u);
  ExpectAllMaximal(graph, sink.collected());
}

class ParallelContainmentTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelContainmentTest, ThrowingSharedSinkDrainsCleanly) {
  const BipartiteGraph graph = MediumGraph();
  RunOptions options;
  options.threads = GetParam();
  options.control.deadline_seconds = 3600;
  ThrowAfterSink sink(6);
  RunResult run;
  // The worker whose flush hits the throwing consumer quarantines its
  // buffered batch; the others drain; the run ends typed, not hung.
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kInternal);
  EXPECT_FALSE(run.message.empty());
  ExpectAllMaximal(graph, sink.collected());
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelContainmentTest,
                         ::testing::Values(2u, 8u));

// --- Watchdog -------------------------------------------------------------

TEST(WatchdogTest, HealthyParallelRunIsUnaffected) {
  const BipartiteGraph graph = MediumGraph();
  const uint64_t reference = ReferenceDigest(graph);
  RunOptions options;
  options.threads = 4;
  options.watchdog_stall_seconds = 30;
  FingerprintSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_EQ(sink.Digest(), reference);
}

TEST(WatchdogTest, MonitorSweepsDuringALongRun) {
  RunOptions options;
  options.threads = 2;
  options.control.deadline_seconds = 0.3;
  options.watchdog_stall_seconds = 30;  // sweeps every 100ms
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(WorstCaseGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kDeadline);
  EXPECT_GE(run.stats.watchdog_checks, 1u);
}

// --- Run control × memory pressure ---------------------------------------

class ControlTimesBudgetTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlTimesBudgetTest, CancellationDuringCappedRunYieldsValidPrefix) {
  const BipartiteGraph graph = WorstCaseGraph();
  std::atomic<bool> cancel{false};
  RunOptions options;
  options.threads = GetParam();
  options.control.cancel = &cancel;
  options.max_memory_bytes = 1 << 20;  // pressure (and maybe exhaustion)
  CollectSink sink;
  // Cancel once the first biclique is delivered: mid-run, no sleep.
  CallbackSink latch([&](std::span<const VertexId> left,
                         std::span<const VertexId> right) {
    sink.Emit(left, right);
    cancel.store(true);
  });
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &latch, &run).ok());
  // Whichever limit won the race, the stop must be typed and the prefix
  // valid.
  EXPECT_TRUE(run.termination == Termination::kCancelled ||
              run.termination == Termination::kMemoryLimit)
      << TerminationName(run.termination);
  EXPECT_LE(run.stats.peak_charged_bytes, options.max_memory_bytes);
  ExpectAllMaximal(graph, sink);
}

TEST_P(ControlTimesBudgetTest, DeadlineDuringWatchdoggedDrainYieldsValidPrefix) {
  const BipartiteGraph graph = WorstCaseGraph();
  RunOptions options;
  options.threads = GetParam();
  options.control.deadline_seconds = 0.05;
  options.watchdog_stall_seconds = 30;
  options.max_memory_bytes = uint64_t{1} << 30;
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_TRUE(run.termination == Termination::kDeadline ||
              run.termination == Termination::kMemoryLimit)
      << TerminationName(run.termination);
  ExpectAllMaximal(graph, sink);
}

INSTANTIATE_TEST_SUITE_P(Threads, ControlTimesBudgetTest,
                         ::testing::Values(1u, 2u, 8u));

// --- Fault injection (compiled in only under -DPMBE_FAULT_INJECTION=ON) ---

#if defined(PMBE_FAULT_INJECTION)

// Every fault test disarms on every exit path: the registry is process
// -wide and a leaked schedule would poison later tests.
struct DisarmGuard {
  ~DisarmGuard() { util::FaultRegistry::Global().Disarm(); }
};

TEST(FaultRegistryTest, SpecParsing) {
  DisarmGuard guard;
  auto& reg = util::FaultRegistry::Global();
  EXPECT_TRUE(reg.ArmSpec("arena.grow:3").ok());
  EXPECT_TRUE(reg.ArmSpec("*:p=0.5:seed=9").ok());
  EXPECT_FALSE(reg.ArmSpec("bogus.point:1").ok());
  EXPECT_FALSE(reg.ArmSpec("batch.build:1").ok());
  EXPECT_FALSE(reg.ArmSpec("arena.grow").ok());
  reg.Disarm();
  EXPECT_FALSE(reg.armed());
}

TEST(FaultRegistryTest, SpecMultiClauseAndPerPointProbability) {
  DisarmGuard guard;
  auto& reg = util::FaultRegistry::Global();
  // ';' joins clauses; each clause parses on its own grammar.
  EXPECT_TRUE(reg.ArmSpec("arena.grow:3;sink.flush:p=0.25:seed=7").ok());
  EXPECT_TRUE(reg.armed());
  reg.Disarm();
  // A bad clause fails the whole spec, even after a good one.
  EXPECT_FALSE(reg.ArmSpec("arena.grow:3;bogus.point:1").ok());
  // Per-point p=1 fires every execution of that point and only it.
  ASSERT_TRUE(reg.ArmSpec("net.delay:p=1").ok());
  EXPECT_TRUE(reg.Check("net.delay"));
  EXPECT_FALSE(reg.Check("net.reset"));
  reg.Disarm();
  // Disarm clears per-point probabilities too.
  EXPECT_FALSE(reg.Check("net.delay"));
}

TEST(FaultRegistryTest, SpecWildcardPrefix) {
  DisarmGuard guard;
  auto& reg = util::FaultRegistry::Global();
  // "<prefix>.*" arms every catalog point under the prefix,
  // probability-mode only.
  ASSERT_TRUE(reg.ArmSpec("net.*:p=1:seed=3").ok());
  EXPECT_TRUE(reg.Check("net.accept"));
  EXPECT_TRUE(reg.Check("net.read_stall"));
  EXPECT_TRUE(reg.Check("net.write_truncate"));
  EXPECT_TRUE(reg.Check("net.reset"));
  EXPECT_TRUE(reg.Check("net.delay"));
  EXPECT_FALSE(reg.Check("arena.grow"));
  reg.Disarm();
  // Wildcards reject countdown mode and unmatched prefixes.
  EXPECT_FALSE(reg.ArmSpec("net.*:3").ok());
  EXPECT_FALSE(reg.ArmSpec("zzz.*:p=0.5").ok());
}

TEST(FaultRegistryTest, PerPointProbabilityIsDeterministicInSeed) {
  DisarmGuard guard;
  auto& reg = util::FaultRegistry::Global();
  auto draw_pattern = [&](uint64_t seed) {
    reg.Disarm();
    reg.ArmPointProbability("net.reset", 0.5, seed);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(reg.Check("net.reset"));
    return pattern;
  };
  const std::vector<bool> a1 = draw_pattern(11);
  const std::vector<bool> a2 = draw_pattern(11);
  const std::vector<bool> b = draw_pattern(12);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  // p=0.5 over 64 draws: both outcomes occur.
  EXPECT_NE(std::count(a1.begin(), a1.end(), true), 0);
  EXPECT_NE(std::count(a1.begin(), a1.end(), true), 64);
}

TEST(FaultInjectionTest, AllocationFaultYieldsMemoryLimit) {
  DisarmGuard guard;
  const BipartiteGraph graph = MediumGraph();
  util::FaultRegistry::Global().ArmCountdown("arena.grow", 1);
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), RunOptions(), &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kMemoryLimit)
      << TerminationName(run.termination);
  EXPECT_GE(run.stats.faults_injected, 1u);
  ExpectAllMaximal(graph, sink);
}

// Fault counts are per session: a fault that fires on a pool worker counts
// into the budget of the session whose task it broke, not into every
// session that happens to be running. Two prepared sessions share one
// worker; the armed worker.task fault hits the first session's first task.
TEST(FaultInjectionTest, FaultCountsStayWithTheFailedSession) {
  DisarmGuard guard;
  const BipartiteGraph graph = MediumGraph();
  const uint64_t solo_digest = ReferenceDigest(graph);
  auto engine = Engine::Build(graph, GraphOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto failed = std::make_shared<Session>(engine.value(), RunOptions());
  auto neighbor = std::make_shared<Session>(engine.value(), RunOptions());
  util::FaultRegistry::Global().ArmCountdown("worker.task", 1);
  CountSink failed_sink;
  FingerprintSink neighbor_sink;
  ASSERT_TRUE(failed->Prepare(&failed_sink).ok());
  ASSERT_TRUE(neighbor->Prepare(&neighbor_sink).ok());
  RunResult failed_run, neighbor_run;
  {
    SessionPool pool(1);
    pool.Submit(failed, [&](const RunResult& r) { failed_run = r; });
    pool.Submit(neighbor, [&](const RunResult& r) { neighbor_run = r; });
    pool.Shutdown();
  }
  EXPECT_EQ(failed_run.termination, Termination::kInternal)
      << TerminationName(failed_run.termination);
  EXPECT_EQ(failed_run.stats.faults_injected, 1u);
  EXPECT_EQ(neighbor_run.termination, Termination::kComplete)
      << TerminationName(neighbor_run.termination);
  EXPECT_EQ(neighbor_run.stats.faults_injected, 0u);
  EXPECT_EQ(neighbor_sink.Digest(), solo_digest);
}

TEST(FaultInjectionTest, SinkFlushFaultYieldsInternal) {
  DisarmGuard guard;
  const BipartiteGraph graph = MediumGraph();
  util::FaultRegistry::Global().ArmCountdown("sink.flush", 1);
  RunOptions options;
  options.threads = 2;  // BufferedSink (and its flush point) is per-worker
  CollectSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kInternal)
      << TerminationName(run.termination);
  EXPECT_FALSE(run.message.empty());
  ExpectAllMaximal(graph, sink);
}

TEST(FaultInjectionTest, WorkerStallTripsTheWatchdog) {
  DisarmGuard guard;
  util::FaultRegistry::Global().ArmCountdown("worker.stall", 1);
  RunOptions options;
  options.threads = 2;
  options.watchdog_stall_seconds = 0.05;  // stall sleeps well past this
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(
      Enumerate(MediumGraph(), GraphOptions(), options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kInternal)
      << TerminationName(run.termination);
  EXPECT_FALSE(run.message.empty());
  EXPECT_GE(run.stats.watchdog_checks, 1u);
}

TEST(FaultInjectionTest, LoaderFaultIsIoErrorWithLineNumber) {
  DisarmGuard guard;
  util::FaultRegistry::Global().ArmCountdown("loader.line", 2);
  auto result = ParseEdgeListText("0 0\n1 1\n2 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

// The heart of the acceptance criteria: fire every registered enumeration
// fault point and require a typed, valid-prefix outcome (kComplete is
// allowed — a point may be unreachable under this configuration — but a
// crash or an untyped stop is not).
TEST(FaultSweepTest, EveryPointCountdownOneIsTypedAndValid) {
  const BipartiteGraph graph = MediumGraph();
  for (const char* point : util::kFaultPoints) {
    if (std::string(point) == "loader.line") continue;  // not in Enumerate
    DisarmGuard guard;
    util::FaultRegistry::Global().ArmCountdown(point, 1);
    RunOptions options;
    options.threads = 2;
    options.watchdog_stall_seconds = 1;  // covers worker.stall (sleeps 200ms)
    CollectSink sink;
    RunResult run;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), options, &sink, &run).ok()) << point;
    EXPECT_TRUE(run.termination == Termination::kComplete ||
                run.termination == Termination::kMemoryLimit ||
                run.termination == Termination::kInternal)
        << point << ": " << TerminationName(run.termination);
    ExpectAllMaximal(graph, sink);
  }
}

// Deeper countdowns move the fault later into the run: the prefix grows
// but stays valid, and runs the fault never reaches complete with the
// reference digest.
TEST(FaultSweepTest, ArenaCountdownSweepKeepsPrefixesValid) {
  const BipartiteGraph graph = MediumGraph();
  const std::vector<Biclique> reference = ReferenceSet(graph);
  for (uint64_t nth = 1; nth <= 8; ++nth) {
    DisarmGuard guard;
    util::FaultRegistry::Global().ArmCountdown("arena.grow", nth);
    CollectSink sink;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), RunOptions(), &sink, &run)
                    .ok()) << nth;
    const std::vector<Biclique> got = sink.TakeSorted();
    if (run.termination == Termination::kComplete) {
      EXPECT_EQ(got.size(), reference.size()) << nth;
    } else {
      EXPECT_EQ(run.termination, Termination::kMemoryLimit) << nth;
    }
    for (const Biclique& b : got) {
      EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(), b))
          << nth << ": " << ToString(b);
    }
  }
}

TEST(FaultSweepTest, ProbabilisticChaosRunsStayTyped) {
  const BipartiteGraph graph = MediumGraph();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    DisarmGuard guard;
    util::FaultRegistry::Global().ArmProbability(0.02, seed);
    RunOptions options;
    options.threads = 2;
    options.watchdog_stall_seconds = 1;
    CollectSink sink;
    RunResult run;
    ASSERT_TRUE(
        Enumerate(graph, GraphOptions(), options, &sink, &run).ok()) << seed;
    EXPECT_TRUE(run.termination == Termination::kComplete ||
                run.termination == Termination::kMemoryLimit ||
                run.termination == Termination::kInternal)
        << seed << ": " << TerminationName(run.termination);
    ExpectAllMaximal(graph, sink);
  }
}

#endif  // PMBE_FAULT_INJECTION

}  // namespace
}  // namespace mbe
