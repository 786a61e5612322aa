// pmbe_serve — the enumeration daemon (docs/SERVICE.md).
//
// Loads graphs once into an in-process registry and serves any number of
// concurrent enumeration sessions over the serve/wire.h protocol, on a
// Unix-domain socket (--unix) or loopback TCP (--port). Sessions share one
// worker pool; admission control bounds concurrency (--max-active /
// --max-queued). SIGTERM / SIGINT drains: running sessions finish and
// stream their results, new sessions are rejected with kDraining, then the
// process exits cleanly.
//
// Graphs can be preloaded from files (positional `name=path` edge lists)
// or uploaded by clients with kLoadGraph frames. SIGHUP hot-reloads every
// preloaded graph from its file into a new registry epoch: in-flight
// sessions finish on the engine they started with, new sessions bind the
// re-read graph (the same swap a client kReloadGraph frame performs).
//
// --stats prints the kServerInfo counter line once a second; --idle-timeout
// drops connections that sit silent with no in-flight sessions.
//
//   pmbe_serve --unix=/tmp/pmbe.sock --max-active=64 web=graphs/web.txt

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_reload{false};

void HandleSignal(int /*signal*/) { g_shutdown.store(true); }

void HandleHup(int /*signal*/) { g_reload.store(true); }

struct PreloadSpec {
  std::string name;
  std::string path;
};

// Builds an engine from one name=path spec (default GraphOptions — the
// same options the original preload used, so a SIGHUP swap changes only
// the data, never the preprocessing).
mbe::util::StatusOr<std::shared_ptr<const mbe::Engine>> BuildFromFile(
    const PreloadSpec& spec) {
  auto graph = mbe::LoadEdgeList(spec.path);
  if (!graph.ok()) return graph.status();
  auto engine =
      mbe::Engine::Build(std::move(graph).value(), mbe::GraphOptions{});
  if (!engine.ok()) return engine.status();
  return std::shared_ptr<const mbe::Engine>(std::move(engine).value());
}

void PrintStats(const mbe::serve::ServerInfoMsg& info) {
  std::printf(
      "stats: active=%u queued=%u graphs=%u started=%llu done=%llu "
      "reloads=%llu heartbeats=%llu idle-drops=%llu conns=%llu%s\n",
      info.active_sessions, info.queued_sessions, info.graphs,
      static_cast<unsigned long long>(info.sessions_started),
      static_cast<unsigned long long>(info.sessions_completed),
      static_cast<unsigned long long>(info.reloads),
      static_cast<unsigned long long>(info.heartbeats),
      static_cast<unsigned long long>(info.idle_disconnects),
      static_cast<unsigned long long>(info.connections_accepted),
      info.draining ? " draining" : "");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  mbe::util::FlagParser flags;
  flags.AddString("unix", "", "unix-domain socket path to listen on");
  flags.AddInt("port", 0,
               "loopback TCP port (used when --unix is empty; 0 = ephemeral, "
               "printed at startup)");
  flags.AddInt("pool-threads", 0,
               "session-pool worker threads (0 = hardware concurrency)");
  flags.AddInt("max-active", 8, "sessions running concurrently");
  flags.AddInt("max-queued", 64, "sessions waiting before kRejected");
  flags.AddDouble("idle-timeout", 0,
                  "drop connections silent this many seconds with no "
                  "in-flight sessions (0 = never)");
  flags.AddBool("stats", false, "print live counters once a second");
  flags.Parse(argc, argv);

  // A peer that vanishes mid-write must surface as a socket error on that
  // connection, never as process death. The per-call guard is MSG_NOSIGNAL
  // in serve/net.h; this covers any path outside the shim.
  std::signal(SIGPIPE, SIG_IGN);

  // The int flags land in unsigned fields below; check each range first so
  // a negative value is rejected instead of wrapping (--pool-threads=-1
  // would otherwise ask the pool for 2^32 - 1 workers).
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();
  for (const mbe::util::Status& range : {
           flags.CheckIntRange("port", 0, 65535),
           flags.CheckIntRange("pool-threads", 0, kMaxU32),
           flags.CheckIntRange("max-active", 0, kMaxI64),
           flags.CheckIntRange("max-queued", 0, kMaxI64),
       }) {
    if (!range.ok()) {
      std::fprintf(stderr, "error: %s\n", range.ToString().c_str());
      return 2;
    }
  }

  mbe::serve::ServerOptions options;
  options.unix_path = flags.GetString("unix");
  options.tcp_port = static_cast<uint16_t>(flags.GetInt("port"));
  options.pool_threads =
      static_cast<unsigned>(flags.GetInt("pool-threads"));
  options.max_active_sessions =
      static_cast<size_t>(flags.GetInt("max-active"));
  options.max_queued_sessions =
      static_cast<size_t>(flags.GetInt("max-queued"));
  options.idle_timeout_seconds = flags.GetDouble("idle-timeout");
  const bool stats = flags.GetBool("stats");

  mbe::serve::Server server(options);

  // Preload positional name=path graphs with default GraphOptions; the
  // specs are remembered so SIGHUP can re-read and swap them.
  std::vector<PreloadSpec> preloads;
  for (const std::string& spec : flags.positional()) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bad graph spec '%s' (want name=path)\n",
                   spec.c_str());
      return 1;
    }
    preloads.push_back(PreloadSpec{spec.substr(0, eq), spec.substr(eq + 1)});
  }
  for (const PreloadSpec& spec : preloads) {
    auto engine = BuildFromFile(spec);
    if (!engine.ok()) {
      std::fprintf(stderr, "load %s: %s\n", spec.path.c_str(),
                   engine.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %s (build %.3fs)\n", spec.name.c_str(),
                engine.value()->graph().Summary().c_str(),
                engine.value()->build_seconds());
    if (!server.registry().Put(spec.name, std::move(engine).value())) {
      std::fprintf(stderr, "duplicate graph name '%s'\n", spec.name.c_str());
      return 1;
    }
  }

  if (mbe::util::Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!options.unix_path.empty()) {
    std::printf("pmbe_serve listening on %s (pool=%u active<=%zu)\n",
                options.unix_path.c_str(), server.pool_threads(),
                options.max_active_sessions);
  } else {
    std::printf("pmbe_serve listening on 127.0.0.1:%u (pool=%u active<=%zu)\n",
                server.tcp_port(), server.pool_threads(),
                options.max_active_sessions);
  }
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGHUP, HandleHup);

  auto last_stats = std::chrono::steady_clock::now();
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_reload.exchange(false)) {
      // Hot reload: re-read every preloaded file and swap it in under a
      // new epoch. A file that no longer loads keeps its current engine —
      // a bad deploy must not take down the graphs that still work.
      for (const PreloadSpec& spec : preloads) {
        auto engine = BuildFromFile(spec);
        if (!engine.ok()) {
          std::fprintf(stderr, "reload %s: %s (keeping current engine)\n",
                       spec.path.c_str(),
                       engine.status().ToString().c_str());
          continue;
        }
        const uint64_t epoch =
            server.registry().Swap(spec.name, std::move(engine).value());
        std::printf("reloaded %s from %s (epoch %llu)\n", spec.name.c_str(),
                    spec.path.c_str(),
                    static_cast<unsigned long long>(epoch));
      }
      std::fflush(stdout);
    }
    if (stats) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_stats >= std::chrono::seconds(1)) {
        last_stats = now;
        PrintStats(server.Info());
      }
    }
  }

  // Drain: stop admitting, let running sessions finish and deliver their
  // kSessionDone frames, then tear the sockets down.
  std::printf("pmbe_serve draining\n");
  std::fflush(stdout);
  server.BeginDrain();
  while (!server.idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (stats) PrintStats(server.Info());
  server.Stop();
  std::printf("pmbe_serve stopped\n");
  return 0;
}
