// Engine/Session API tests (api/engine.h, api/session.h) and the shared
// SessionPool (api/session_pool.h): facade equivalence, run-once
// semantics, cancellation, per-session memory-budget isolation,
// multi-session digest identity on a shared pool, and per-session
// accounting (kernel calls, flushes, busy time) of pool sessions.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "api/mbe.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "api/session_pool.h"

namespace mbe {
namespace {

std::shared_ptr<const Engine> BuildEngine(const BipartiteGraph& graph,
                                          const GraphOptions& options = {}) {
  auto engine = Engine::Build(graph, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Digest of one complete standalone run over `engine`.
uint64_t SoloDigest(const std::shared_ptr<const Engine>& engine,
                    const RunOptions& options, uint64_t* count = nullptr) {
  FingerprintSink sink;
  Session session(engine, options);
  RunResult result;
  EXPECT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_TRUE(result.complete());
  if (count != nullptr) *count = sink.count();
  return sink.Digest();
}

/// Blocks until `n` done callbacks fired.
class Latch {
 public:
  explicit Latch(int n) : remaining_(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

TEST(EngineSessionTest, MatchesFacadeForEveryAlgorithm) {
  const BipartiteGraph graph = gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61);
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kBbk}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    RunOptions options;
    options.algorithm = algorithm;

    FingerprintSink facade_sink;
    RunResult facade_result;
    ASSERT_TRUE(Enumerate(graph, GraphOptions(), options, &facade_sink,
                          &facade_result)
                    .ok());
    ASSERT_TRUE(facade_result.complete());

    auto engine = BuildEngine(graph, GraphOptions());
    FingerprintSink session_sink;
    Session session(engine, options);
    RunResult session_result;
    ASSERT_TRUE(session.Run(&session_sink, &session_result).ok());
    EXPECT_TRUE(session_result.complete());
    EXPECT_EQ(session_sink.Digest(), facade_sink.Digest());
    EXPECT_EQ(session_sink.count(), facade_sink.count());
    EXPECT_EQ(session_result.stats.maximal, facade_result.stats.maximal);

    // Per-vertex subtree tasks in place of the whole-graph traversal.
    FingerprintSink subtree_sink;
    ASSERT_TRUE(EnumerateSubtreeTasks(graph, GraphOptions(), options,
                                      &subtree_sink, nullptr)
                    .ok());
    EXPECT_EQ(subtree_sink.Digest(), facade_sink.Digest());
    EXPECT_EQ(subtree_sink.count(), facade_sink.count());
  }
}

TEST(EngineSessionTest, EngineIsReusableAcrossSessions) {
  auto engine = BuildEngine(gen::ErdosRenyi(20, 20, 0.3, 5));
  const uint64_t first = SoloDigest(engine, RunOptions{});
  const uint64_t second = SoloDigest(engine, RunOptions{});
  EXPECT_EQ(first, second);
}

TEST(EngineSessionTest, SessionRunsOnlyOnce) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  Session session(engine, RunOptions{});
  FingerprintSink sink;
  ASSERT_TRUE(session.Run(&sink).ok());
  EXPECT_FALSE(session.Run(&sink).ok());
}

TEST(EngineSessionTest, NullSinkRejected) {
  auto engine = BuildEngine(gen::ErdosRenyi(5, 5, 0.5, 1));
  Session session(engine, RunOptions{});
  EXPECT_EQ(session.Run(nullptr).code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineSessionTest, CancelBeforeRunStopsImmediately) {
  auto engine = BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61));
  Session session(engine, RunOptions{});
  session.Cancel();
  FingerprintSink sink;
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_EQ(result.termination, Termination::kCancelled);
}

TEST(EngineSessionTest, DeadlineCountsFromPrepareNotConstruction) {
  // The controller exists from construction, but its clock starts when the
  // run is prepared: time a session spends waiting (a served session's
  // admission queue) is not run time. The first poll checkpoints, so a
  // clock started at construction would trip this deadline at once.
  auto engine = BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61));
  RunOptions options;
  options.control.deadline_seconds = 0.4;
  Session session(engine, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  CountSink sink;
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_EQ(result.termination, Termination::kComplete);
  EXPECT_GT(sink.count(), 0u);
}

TEST(EngineSessionTest, QueryLooserThanBakedReductionRejected) {
  GraphOptions baked;
  baked.min_left = 2;
  baked.min_right = 2;
  auto engine = BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61), baked);
  ASSERT_EQ(engine->reduced_min_left(), 2u);
  ASSERT_EQ(engine->reduced_min_right(), 2u);

  RunOptions loose;  // min 1/1 would need bicliques the reduction removed
  Session session(engine, loose);
  FingerprintSink sink;
  EXPECT_EQ(session.Run(&sink).code(), util::StatusCode::kInvalidArgument);

  // An exactly-as-strict query runs and matches an unreduced engine
  // filtered to the same thresholds.
  RunOptions strict;
  strict.mbet.min_left = 2;
  strict.mbet.min_right = 2;
  const uint64_t reduced_digest = SoloDigest(engine, strict);
  auto unreduced =
      BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61), GraphOptions{});
  EXPECT_EQ(reduced_digest, SoloDigest(unreduced, strict));
}

TEST(EngineSessionTest, SessionIdTagsResult) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  Session session(engine, RunOptions{}, 42);
  FingerprintSink sink;
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_EQ(result.session_id, 42u);
}

// The per-session budget satellite: one tenant exhausting its cap stops
// (and degrades) only its own run; a concurrent neighbor over the same
// engine completes bit-identically to a solo run.
TEST(EngineSessionTest, BudgetExhaustionIsContainedToOneSession) {
  const BipartiteGraph graph = gen::PowerLaw(60, 90, 700, 0.8, 0.8, 17);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);
  ASSERT_GT(want_count, 0u);

  RunOptions capped;
  capped.max_memory_bytes = 1 << 12;  // 4 KiB: certain to be exceeded
  Session victim(engine, capped, 1);
  Session neighbor(engine, RunOptions{}, 2);

  FingerprintSink victim_sink, neighbor_sink;
  RunResult victim_result, neighbor_result;
  util::Status victim_status, neighbor_status;
  std::thread victim_thread([&] {
    victim_status = victim.Run(&victim_sink, &victim_result);
  });
  std::thread neighbor_thread([&] {
    neighbor_status = neighbor.Run(&neighbor_sink, &neighbor_result);
  });
  victim_thread.join();
  neighbor_thread.join();

  ASSERT_TRUE(victim_status.ok()) << victim_status.ToString();
  ASSERT_TRUE(neighbor_status.ok()) << neighbor_status.ToString();
  EXPECT_EQ(victim_result.termination, Termination::kMemoryLimit);
  EXPECT_LE(victim_result.stats.peak_charged_bytes, capped.max_memory_bytes);
  // The neighbor never saw the victim's exhaustion: complete, untouched
  // by degradation pressure, and bit-identical to the solo run.
  EXPECT_EQ(neighbor_result.termination, Termination::kComplete);
  EXPECT_EQ(neighbor_result.stats.degradations, 0u);
  EXPECT_EQ(neighbor_sink.Digest(), want_digest);
  EXPECT_EQ(neighbor_sink.count(), want_count);
}

// --- SessionPool ---------------------------------------------------------

TEST(SessionPoolTest, ManyConcurrentSessionsDigestIdentity) {
  const BipartiteGraph graph = gen::PowerLaw(40, 60, 400, 0.8, 0.8, 7);
  auto engine = BuildEngine(graph);
  const Algorithm algorithms[] = {Algorithm::kMbet, Algorithm::kImbea,
                                  Algorithm::kMineLmbc};
  uint64_t want_digest[3] = {};
  uint64_t want_count[3] = {};
  for (int a = 0; a < 3; ++a) {
    RunOptions options;
    options.algorithm = algorithms[a];
    want_digest[a] = SoloDigest(engine, options, &want_count[a]);
  }

  constexpr int kSessions = 9;
  SessionPool pool(3);
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::unique_ptr<FingerprintSink>> sinks;
  std::vector<RunResult> results(kSessions);
  Latch latch(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    RunOptions options;
    options.algorithm = algorithms[i % 3];
    sessions.push_back(std::make_shared<Session>(engine, options, i + 1));
    sinks.push_back(std::make_unique<FingerprintSink>());
    ASSERT_TRUE(sessions[i]->Prepare(sinks[i].get()).ok());
  }
  for (int i = 0; i < kSessions; ++i) {
    pool.Submit(sessions[i], [&results, &latch, i](const RunResult& r) {
      results[i] = r;
      latch.CountDown();
    });
  }
  latch.Wait();
  pool.Shutdown();

  for (int i = 0; i < kSessions; ++i) {
    SCOPED_TRACE(AlgorithmName(algorithms[i % 3]));
    EXPECT_EQ(results[i].termination, Termination::kComplete);
    EXPECT_EQ(results[i].session_id, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(sinks[i]->Digest(), want_digest[i % 3]);
    EXPECT_EQ(sinks[i]->count(), want_count[i % 3]);
    EXPECT_EQ(results[i].results_emitted, want_count[i % 3]);
  }
}

TEST(SessionPoolTest, CancelStopsOnlyTheTargetedSession) {
  const BipartiteGraph graph = gen::PowerLaw(40, 60, 400, 0.8, 0.8, 7);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);

  SessionPool pool(2);
  auto cancelled = std::make_shared<Session>(engine, RunOptions{}, 1);
  auto survivor = std::make_shared<Session>(engine, RunOptions{}, 2);
  FingerprintSink cancelled_sink, survivor_sink;
  ASSERT_TRUE(cancelled->Prepare(&cancelled_sink).ok());
  ASSERT_TRUE(survivor->Prepare(&survivor_sink).ok());
  // Cancel lands before the pool runs any task: deterministic outcome.
  cancelled->Cancel();

  RunResult cancelled_result, survivor_result;
  Latch latch(2);
  pool.Submit(cancelled, [&](const RunResult& r) {
    cancelled_result = r;
    latch.CountDown();
  });
  pool.Submit(survivor, [&](const RunResult& r) {
    survivor_result = r;
    latch.CountDown();
  });
  latch.Wait();
  pool.Shutdown();

  EXPECT_EQ(cancelled_result.termination, Termination::kCancelled);
  EXPECT_EQ(survivor_result.termination, Termination::kComplete);
  EXPECT_EQ(survivor_sink.Digest(), want_digest);
  EXPECT_EQ(survivor_sink.count(), want_count);
}

TEST(SessionPoolTest, PerSessionBudgetContainmentOnSharedWorkers) {
  // The serve-side variant of BudgetExhaustionIsContainedToOneSession:
  // both sessions' tasks interleave on the same pool threads, so this
  // additionally proves the thread-local budget binding switches
  // correctly between tasks of different tenants.
  const BipartiteGraph graph = gen::PowerLaw(60, 90, 700, 0.8, 0.8, 17);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);

  RunOptions capped;
  capped.max_memory_bytes = 1 << 12;
  SessionPool pool(2);
  auto victim = std::make_shared<Session>(engine, capped, 1);
  auto neighbor = std::make_shared<Session>(engine, RunOptions{}, 2);
  FingerprintSink victim_sink, neighbor_sink;
  ASSERT_TRUE(victim->Prepare(&victim_sink).ok());
  ASSERT_TRUE(neighbor->Prepare(&neighbor_sink).ok());

  RunResult victim_result, neighbor_result;
  Latch latch(2);
  pool.Submit(victim, [&](const RunResult& r) {
    victim_result = r;
    latch.CountDown();
  });
  pool.Submit(neighbor, [&](const RunResult& r) {
    neighbor_result = r;
    latch.CountDown();
  });
  latch.Wait();
  pool.Shutdown();

  EXPECT_EQ(victim_result.termination, Termination::kMemoryLimit);
  EXPECT_LE(victim_result.stats.peak_charged_bytes, capped.max_memory_bytes);
  EXPECT_EQ(neighbor_result.termination, Termination::kComplete);
  EXPECT_EQ(neighbor_result.stats.degradations, 0u);
  EXPECT_EQ(neighbor_sink.Digest(), want_digest);
  EXPECT_EQ(neighbor_sink.count(), want_count);
}

/// Prepares `session` into `sink` and runs it alone on a one-worker pool.
RunResult SoloOnPool(const std::shared_ptr<Session>& session,
                     ResultSink* sink) {
  EXPECT_TRUE(session->Prepare(sink).ok());
  SessionPool pool(1);
  RunResult result;
  pool.Submit(session, [&result](const RunResult& r) { result = r; });
  pool.Shutdown();
  return result;
}

TEST(SessionPoolTest, KernelCallsAreCountedPerSession) {
  // Two sessions on one worker: round-robin interleaves their tasks on the
  // same thread, yet each reports exactly the kernel calls of its solo
  // run — none of its neighbour's. MBEA and iMBEA both dispatch many
  // mask-family calls here, in different numbers.
  auto engine = BuildEngine(gen::ErdosRenyi(60, 60, 0.3, 17));
  RunOptions improved;
  improved.algorithm = Algorithm::kImbea;
  RunOptions plain;
  plain.algorithm = Algorithm::kMbea;
  CountSink solo_sink;
  const EnumStats solo_improved =
      SoloOnPool(std::make_shared<Session>(engine, improved), &solo_sink)
          .stats;
  const EnumStats solo_plain =
      SoloOnPool(std::make_shared<Session>(engine, plain), &solo_sink).stats;
  ASSERT_GT(solo_improved.simd_mask_calls, 0u);
  ASSERT_GT(solo_plain.simd_mask_calls, 0u);
  ASSERT_NE(solo_improved.simd_mask_calls, solo_plain.simd_mask_calls);

  auto first = std::make_shared<Session>(engine, improved, 1);
  auto second = std::make_shared<Session>(engine, plain, 2);
  CountSink first_sink, second_sink;
  ASSERT_TRUE(first->Prepare(&first_sink).ok());
  ASSERT_TRUE(second->Prepare(&second_sink).ok());
  RunResult first_result, second_result;
  SessionPool pool(1);
  pool.Submit(first, [&](const RunResult& r) { first_result = r; });
  pool.Submit(second, [&](const RunResult& r) { second_result = r; });
  pool.Shutdown();

  for (const auto& [got, want] :
       {std::pair{first_result.stats, solo_improved},
        std::pair{second_result.stats, solo_plain}}) {
    EXPECT_EQ(got.simd_intersect_calls, want.simd_intersect_calls);
    EXPECT_EQ(got.simd_mask_calls, want.simd_mask_calls);
    EXPECT_EQ(got.simd_word_calls, want.simd_word_calls);
  }
}

TEST(SessionPoolTest, PoolSessionStatsCarryFlushesAndBusyTime) {
  // The pool merges each worker slot's sink flushes and task time into
  // the session, not only the engine counters.
  auto engine = BuildEngine(gen::PowerLaw(40, 60, 400, 0.8, 0.8, 7));
  CountSink sink;
  const RunResult result =
      SoloOnPool(std::make_shared<Session>(engine, RunOptions{}), &sink);
  ASSERT_TRUE(result.complete());
  ASSERT_GT(sink.count(), 0u);
  EXPECT_GT(result.stats.sink_flushes, 0u);
  EXPECT_GT(result.stats.busy_ns, 0u);
}

TEST(SessionPoolTest, SubmitAfterShutdownCancelsInline) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  SessionPool pool(1);
  pool.Shutdown();
  auto session = std::make_shared<Session>(engine, RunOptions{}, 1);
  FingerprintSink sink;
  ASSERT_TRUE(session->Prepare(&sink).ok());
  bool done = false;
  RunResult result;
  pool.Submit(session, [&](const RunResult& r) {
    result = r;
    done = true;
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(result.termination, Termination::kCancelled);
}

}  // namespace
}  // namespace mbe
