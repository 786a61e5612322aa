// pmbe_load — load generator and correctness client for pmbe_serve.
//
// Built on the fault-tolerant client library (client/client.h): every
// socket operation carries a deadline, retryable failures reconnect with
// backoff, and each session's result stream is digest-verified against
// the server's kSessionDone fingerprint before it counts. Runs
// `--concurrent` worker threads (one mbe::client::Client each), keeps a
// session in flight per worker until `--sessions` have finished, and
// reports client-observed latency percentiles (request -> verified done,
// including admission queueing and any retries). With --verify (default)
// it first enumerates the same graph locally and checks every completed
// remote session's order-independent result fingerprint against the local
// one — any cross-session corruption on the server shows up as a digest
// mismatch.
//
//   pmbe_serve --unix=/tmp/pmbe.sock --max-active=64 &
//   pmbe_load --unix=/tmp/pmbe.sock --sessions=128 --concurrent=64
//       --out=/tmp/pmbe_load.json
//
// --out records one ad-hoc run. The serving performance baseline is the
// `serve_mixed` workload of mbebench (mbebench/run.py): a pmbe_serve child
// under a mixed full-session / preview / reload load, measured on the host
// that runs it.
//
// Chaos-run extras: --reload-upload uploads via kReloadGraph (idempotent
// swap, safe to re-issue when fault injection kills the upload mid-way);
// --reload-after=K hot-swaps the graph mid-traffic after K sessions have
// finished, proving in-flight sessions stay on their engine epoch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/mbe.h"
#include "client/client.h"
#include "gen/registry.h"
#include "serve/wire.h"
#include "util/flags.h"
#include "util/stats.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Shared tally across worker threads; one session lands in exactly one
/// of {completed, rejected} (incomplete and mismatches subdivide
/// completed).
struct Tally {
  std::mutex mu;
  std::vector<double> latencies_ms;
  uint64_t max_queue_wait_ns = 0;
  int completed = 0;
  int incomplete = 0;
  int rejected = 0;
  int mismatches = 0;
  uint64_t attempts = 0;
  std::atomic<int> finished{0};  // completed + rejected, lock-free reads
};

}  // namespace

int main(int argc, char** argv) {
  mbe::util::FlagParser flags;
  flags.AddString("unix", "", "daemon unix socket path");
  flags.AddInt("port", 0, "daemon TCP port (when --unix is empty)");
  flags.AddString("graph", "Mti", "synthetic dataset name (gen/registry)");
  flags.AddDouble("scale", 1.0, "dataset scale factor in (0, 1]");
  flags.AddString("algorithm", "mbet", "enumeration algorithm");
  flags.AddInt("min-left", 1, "biclique size threshold (left)");
  flags.AddInt("min-right", 1, "biclique size threshold (right)");
  flags.AddInt("sessions", 64, "total sessions to run");
  flags.AddInt("concurrent", 64, "sessions kept in flight");
  flags.AddInt("max-results", 0, "per-session result budget (0 = none)");
  flags.AddDouble("deadline", 0, "per-session deadline seconds (0 = none)");
  flags.AddInt("max-memory", 0, "per-session memory cap bytes (0 = none)");
  flags.AddInt("batch", 128, "bicliques per kResultBatch frame");
  flags.AddBool("verify", true,
                "check every complete session's fingerprint against a "
                "local run");
  flags.AddInt("retries", 4, "client retries per operation");
  flags.AddDouble("io-timeout", 30, "per-syscall read/write deadline (s)");
  flags.AddDouble("connect-timeout", 5, "per-attempt connect deadline (s)");
  flags.AddBool("reload-upload", false,
                "upload via kReloadGraph (idempotent swap) instead of "
                "first-wins kLoadGraph — safe to re-issue under faults");
  flags.AddInt("reload-after", 0,
               "hot-swap the graph (kReloadGraph, same data) after this "
               "many sessions finished (0 = never)");
  flags.AddString("out", "", "write a JSON latency report here");
  flags.Parse(argc, argv);

  // Check each int flag's range before the casts below, so a negative or
  // oversized value is rejected instead of wrapping.
  constexpr int64_t kMaxI32 = std::numeric_limits<int32_t>::max();
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();
  for (const mbe::util::Status& range : {
           flags.CheckIntRange("port", 0, 65535),
           flags.CheckIntRange("min-left", 1, kMaxU32),
           flags.CheckIntRange("min-right", 1, kMaxU32),
           flags.CheckIntRange("sessions", 0, kMaxI32),
           flags.CheckIntRange("concurrent", 0, kMaxI32),
           flags.CheckIntRange("max-results", 0, kMaxI64),
           flags.CheckIntRange("max-memory", 0, kMaxI64),
           flags.CheckIntRange("batch", 0, kMaxU32),
           flags.CheckIntRange("retries", 0, kMaxU32),
           flags.CheckIntRange("reload-after", 0, kMaxI32),
       }) {
    if (!range.ok()) {
      std::fprintf(stderr, "error: %s\n", range.ToString().c_str());
      return 2;
    }
  }

  mbe::Algorithm algorithm = mbe::Algorithm::kMbet;
  if (auto status =
          mbe::ParseAlgorithm(flags.GetString("algorithm"), &algorithm);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const uint32_t min_left = static_cast<uint32_t>(flags.GetInt("min-left"));
  const uint32_t min_right =
      static_cast<uint32_t>(flags.GetInt("min-right"));
  const int total_sessions = static_cast<int>(flags.GetInt("sessions"));
  const int concurrent = std::max(
      1, std::min(static_cast<int>(flags.GetInt("concurrent")),
                  std::max(1, total_sessions)));
  const bool verify = flags.GetBool("verify");
  const int reload_after = static_cast<int>(flags.GetInt("reload-after"));

  const mbe::gen::DatasetSpec& spec =
      mbe::gen::FindDataset(flags.GetString("graph"));
  const mbe::BipartiteGraph graph =
      mbe::gen::Materialize(spec, flags.GetDouble("scale"));
  std::printf("dataset %s: %s\n", spec.name.c_str(),
              graph.Summary().c_str());

  // The query every session runs, and the preprocessing the one-shot
  // facade would pick for it: the server-side engine and the local
  // reference both use it, so their results match.
  mbe::RunOptions query;
  query.algorithm = algorithm;
  query.mbet.min_left = min_left;
  query.mbet.min_right = min_right;
  const mbe::GraphOptions graph_options =
      mbe::GraphOptionsForRun(mbe::GraphOptions(), query);

  // Local reference fingerprint (same options the sessions will run).
  uint64_t want_digest = 0;
  uint64_t want_count = 0;
  if (verify) {
    mbe::FingerprintSink reference;
    mbe::RunResult run;
    if (auto status =
            mbe::Enumerate(graph, graph_options, query, &reference, &run);
        !status.ok() || !run.complete()) {
      std::fprintf(stderr, "local reference run failed\n");
      return 1;
    }
    want_digest = reference.Digest();
    want_count = reference.count();
    std::printf("local reference: %llu bicliques, digest %016llx\n",
                static_cast<unsigned long long>(want_count),
                static_cast<unsigned long long>(want_digest));
  }

  mbe::client::ClientOptions copts;
  copts.unix_path = flags.GetString("unix");
  copts.tcp_port = static_cast<uint16_t>(flags.GetInt("port"));
  copts.connect_timeout_seconds = flags.GetDouble("connect-timeout");
  copts.io_timeout_seconds = flags.GetDouble("io-timeout");
  copts.max_retries = static_cast<uint32_t>(flags.GetInt("retries"));

  // The control client handles upload, heartbeat, and mid-run reloads;
  // each worker thread gets its own Client (thread-compatible, one
  // conversation each) with a distinct backoff seed so their retry
  // jitters don't stampede in lockstep.
  mbe::client::Client control(copts);
  if (auto status = control.Connect(); !status.ok()) {
    std::fprintf(stderr, "cannot connect to the daemon: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  {
    const Clock::time_point t0 = Clock::now();
    if (auto status = control.Ping(); !status.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", status.ToString().c_str());
      return 1;
    }
    auto info = control.GetServerInfo();
    if (info.ok()) {
      std::printf(
          "ping %.2fms; server: pool=%u active=%u queued=%u graphs=%u%s\n",
          MsSince(t0, Clock::now()), info.value().pool_threads,
          info.value().active_sessions, info.value().queued_sessions,
          info.value().graphs, info.value().draining ? " draining" : "");
    }
  }

  // Upload the graph with the reference run's preprocessing.
  mbe::serve::LoadGraphMsg load;
  load.name = spec.name;
  load.num_left = static_cast<uint32_t>(graph.num_left());
  load.num_right = static_cast<uint32_t>(graph.num_right());
  {
    const std::vector<mbe::Edge> edges = graph.ToEdges();
    load.edge_left.reserve(edges.size());
    load.edge_right.reserve(edges.size());
    for (const mbe::Edge& e : edges) {
      load.edge_left.push_back(e.u);
      load.edge_right.push_back(e.v);
    }
  }
  load.core_reduce = graph_options.core_reduce;
  load.min_left = graph_options.min_left;
  load.min_right = graph_options.min_right;
  {
    auto reply = flags.GetBool("reload-upload") ? control.ReloadGraph(load)
                                                : control.LoadGraph(load);
    if (!reply.ok()) {
      std::fprintf(stderr, "graph upload failed: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::printf("uploaded '%s': %llu edges retained, build %.3fs\n",
                reply.value().name.c_str(),
                static_cast<unsigned long long>(reply.value().num_edges),
                reply.value().build_seconds);
  }

  mbe::serve::StartSessionMsg start;
  start.graph = spec.name;
  start.algorithm = static_cast<uint8_t>(algorithm);
  start.min_left = min_left;
  start.min_right = min_right;
  start.max_results = static_cast<uint64_t>(flags.GetInt("max-results"));
  start.deadline_seconds = flags.GetDouble("deadline");
  start.max_memory_bytes = static_cast<uint64_t>(flags.GetInt("max-memory"));
  start.batch_results = static_cast<uint32_t>(flags.GetInt("batch"));

  Tally tally;
  std::atomic<int> next_session{0};
  std::atomic<uint64_t> worker_retries{0};
  std::atomic<uint64_t> worker_reconnects{0};

  auto worker = [&](int worker_id) {
    mbe::client::ClientOptions opts = copts;
    opts.backoff_seed =
        copts.backoff_seed + static_cast<uint64_t>(worker_id) * 7919;
    mbe::client::Client client(opts);
    while (next_session.fetch_add(1) < total_sessions) {
      const Clock::time_point t0 = Clock::now();
      auto outcome = client.Enumerate(start, /*sink=*/nullptr);
      const double ms = MsSince(t0, Clock::now());
      std::lock_guard<std::mutex> lock(tally.mu);
      if (outcome.ok()) {
        const auto& done = outcome.value().done;
        tally.latencies_ms.push_back(ms);
        tally.max_queue_wait_ns =
            std::max(tally.max_queue_wait_ns, done.queue_wait_ns);
        tally.attempts += outcome.value().attempts;
        const auto termination =
            static_cast<mbe::Termination>(done.termination);
        if (termination == mbe::Termination::kComplete) {
          if (verify && (outcome.value().digest != want_digest ||
                         done.results_emitted != want_count)) {
            std::fprintf(
                stderr,
                "DIGEST MISMATCH session %llu: got %016llx/%llu want "
                "%016llx/%llu\n",
                static_cast<unsigned long long>(done.session_id),
                static_cast<unsigned long long>(outcome.value().digest),
                static_cast<unsigned long long>(done.results_emitted),
                static_cast<unsigned long long>(want_digest),
                static_cast<unsigned long long>(want_count));
            ++tally.mismatches;
          }
        } else {
          ++tally.incomplete;
        }
        ++tally.completed;
      } else if (client.last_error() ==
                 mbe::client::ErrorKind::kDigestMismatch) {
        // The stream the server delivered disagrees with its own digest
        // — transport-level corruption, the headline failure mode.
        std::fprintf(stderr, "DIGEST MISMATCH (stream): %s\n",
                     outcome.status().ToString().c_str());
        ++tally.mismatches;
        ++tally.completed;
      } else {
        // Rejected (draining / busy after retries) or the connection is
        // terminally gone; the session never ran to a verified end.
        std::fprintf(stderr, "rejected: %s\n",
                     outcome.status().ToString().c_str());
        ++tally.rejected;
      }
      tally.finished.fetch_add(1);
    }
    worker_retries.fetch_add(client.retries());
    worker_reconnects.fetch_add(client.reconnects());
  };

  const Clock::time_point bench_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(concurrent));
  for (int i = 0; i < concurrent; ++i) threads.emplace_back(worker, i);

  // Mid-traffic hot reload: after `reload_after` sessions finished, swap
  // the same graph in under a new epoch. In-flight sessions must keep
  // their engine; the digest check on every later session proves the
  // swapped-in engine enumerates identically.
  bool reload_fired = false;
  while (tally.finished.load() < total_sessions) {
    if (!reload_fired && reload_after > 0 &&
        tally.finished.load() >= reload_after) {
      reload_fired = true;
      auto reply = control.ReloadGraph(load);
      if (reply.ok()) {
        std::printf("reloaded '%s' mid-traffic (epoch %llu)\n",
                    reply.value().name.c_str(),
                    static_cast<unsigned long long>(reply.value().epoch));
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "mid-traffic reload failed: %s\n",
                     reply.status().ToString().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = MsSince(bench_start, Clock::now()) / 1000.0;

  const double p50 = mbe::util::Percentile(tally.latencies_ms, 50);
  const double p95 = mbe::util::Percentile(tally.latencies_ms, 95);
  const double p99 = mbe::util::Percentile(tally.latencies_ms, 99);
  double mean = 0;
  for (double v : tally.latencies_ms) mean += v;
  if (!tally.latencies_ms.empty()) {
    mean /= static_cast<double>(tally.latencies_ms.size());
  }

  std::printf(
      "%d sessions (%d concurrent): %d complete, %d interrupted, %d "
      "rejected, %d digest mismatches\n",
      total_sessions, concurrent, tally.completed - tally.incomplete,
      tally.incomplete, tally.rejected, tally.mismatches);
  std::printf(
      "latency ms: p50=%.1f p95=%.1f p99=%.1f mean=%.1f  throughput=%.1f "
      "sessions/s  max_queue_wait=%.1fms\n",
      p50, p95, p99, mean,
      wall_s > 0 ? static_cast<double>(tally.completed) / wall_s : 0,
      static_cast<double>(tally.max_queue_wait_ns) / 1e6);
  std::printf(
      "client: %llu attempts, %llu retries, %llu reconnects\n",
      static_cast<unsigned long long>(tally.attempts),
      static_cast<unsigned long long>(worker_retries.load()),
      static_cast<unsigned long long>(worker_reconnects.load()));

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"pmbe_serve mixed workload\",\n"
                 "  \"dataset\": \"%s\",\n"
                 "  \"scale\": %g,\n"
                 "  \"algorithm\": \"%s\",\n"
                 "  \"sessions\": %d,\n"
                 "  \"concurrent\": %d,\n"
                 "  \"complete\": %d,\n"
                 "  \"interrupted\": %d,\n"
                 "  \"rejected\": %d,\n"
                 "  \"digest_mismatches\": %d,\n"
                 "  \"verified\": %s,\n"
                 "  \"retries\": %llu,\n"
                 "  \"reconnects\": %llu,\n"
                 "  \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, "
                 "\"p99\": %.2f, \"mean\": %.2f},\n"
                 "  \"throughput_sessions_per_s\": %.2f,\n"
                 "  \"max_queue_wait_ms\": %.2f,\n"
                 "  \"wall_seconds\": %.2f\n"
                 "}\n",
                 spec.name.c_str(), flags.GetDouble("scale"),
                 mbe::AlgorithmName(algorithm), total_sessions, concurrent,
                 tally.completed - tally.incomplete, tally.incomplete,
                 tally.rejected, tally.mismatches,
                 verify && tally.mismatches == 0 ? "true" : "false",
                 static_cast<unsigned long long>(worker_retries.load()),
                 static_cast<unsigned long long>(worker_reconnects.load()),
                 p50, p95, p99, mean,
                 wall_s > 0 ? static_cast<double>(tally.completed) / wall_s
                            : 0,
                 static_cast<double>(tally.max_queue_wait_ns) / 1e6,
                 wall_s);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  }
  return tally.mismatches == 0 ? 0 : 1;
}
