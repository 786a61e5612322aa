// The serve_mixed workload: pmbe_serve runs as a child process on a private
// unix socket and this process is the load generator, with four
// mbe::client::Client connections in a closed loop. See mbebench/README.md.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common.h"
#include "serve/wire.h"

namespace mbebench {

namespace {

constexpr char kGraphName[] = "Mti";
/// Connection 0 loops full sessions; the others loop previews.
constexpr int kConnections = 4;
/// Connection 1 re-uploads the graph (kReloadGraph) every this many
/// previews, so registry writes and Engine::Build run beside reads.
constexpr int kReloadEvery = 25;
/// kReloadGraph round-trips behind setup_s (median).
constexpr int kSetupReloads = 41;
/// The loop runs until these many sessions are done as well as the
/// window: p95 needs >= 10 previews beyond it.
constexpr size_t kMinPreviews = 220;
constexpr size_t kMinFull = 5;
/// Hard stop, so a run ends well inside its time limit on a slow host.
constexpr double kMaxLoopSeconds = 120;

/// pmbe_serve as a child process. The destructor stops it (SIGTERM drain,
/// SIGKILL after a grace period) and reaps it; the child also dies with
/// this process (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::string& socket,
             unsigned pool_threads) {
    std::vector<std::string> args = {
        binary, "--unix=" + socket,
        "--pool-threads=" + std::to_string(pool_threads)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      // The daemon's log goes to stderr: stdout carries the result line.
      dup2(STDERR_FILENO, STDOUT_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    return true;
  }

  /// True when the daemon drained and exited with status 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    bool clean = true;
    const Clock::time_point start = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(start) > 10) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        clean = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

mbe::serve::LoadGraphMsg LoadMessage(const mbe::BipartiteGraph& graph) {
  mbe::serve::LoadGraphMsg load;
  load.name = kGraphName;
  load.num_left = static_cast<uint32_t>(graph.num_left());
  load.num_right = static_cast<uint32_t>(graph.num_right());
  for (const mbe::Edge& e : graph.ToEdges()) {
    load.edge_left.push_back(e.u);
    load.edge_right.push_back(e.v);
  }
  return load;
}

/// One preview as it returned; its bicliques are verified after the
/// traffic stops, so no check runs inside the closed loop. (Previews of
/// the pooled daemon return different first-1000 sets, so every batch is
/// kept: about 70 KB each.)
struct PreviewRecord {
  mbe::Termination termination;
  uint64_t results_emitted;
  mbe::BicliqueBatch batch;
};

/// Samples of the traffic phase, shared by the client threads.
struct Traffic {
  std::mutex mu;
  std::vector<double> full_ms;
  std::vector<double> preview_ms;
  std::vector<double> reload_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<double> overhead_ms;
  std::vector<double> first_batch_ms;
  std::vector<PreviewRecord> previews_done;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  std::atomic<size_t> fulls{0};
  std::atomic<size_t> previews{0};
  std::atomic<bool> stop{false};
};

/// One connection's closed loop. In a traced run previews stream (results
/// reach the sink as they arrive) so the first batch can be stamped. A
/// full session is checked against the reference digest (two integers); a
/// preview is only recorded here and verified after the traffic.
void ClientLoop(int index, const std::string& socket, const BenchGraph& g,
                const mbe::serve::LoadGraphMsg& load, bool trace,
                Traffic* traffic, RunReport* report) {
  mbe::client::ClientOptions options;
  options.unix_path = socket;
  options.backoff_seed = 1 + static_cast<uint64_t>(index) * 7919;
  options.buffer_results = !trace;
  mbe::client::Client client(options);
  const bool full = index == 0;
  mbe::serve::StartSessionMsg start;
  start.graph = kGraphName;
  start.algorithm = static_cast<uint8_t>(mbe::Algorithm::kMbet);
  if (!full) start.max_results = kPreviewResults;

  for (int request = 0; !traffic->stop.load(); ++request) {
    if (index == 1 && request > 0 && request % kReloadEvery == 0) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = client.ReloadGraph(load).ok();
      const double ms = 1000 * SecondsSince(t0);
      report->Check(ok, "reload during traffic");
      std::lock_guard<std::mutex> lock(traffic->mu);
      traffic->reload_ms.push_back(ms);
    }
    BatchSink sink;
    const Clock::time_point t0 = Clock::now();
    auto outcome = client.Enumerate(start, full ? nullptr : &sink);
    const double ms = 1000 * SecondsSince(t0);
    if (!outcome.ok()) {
      report->Check(false, std::string(full ? "served full session"
                                            : "served preview") +
                               ": " + outcome.status().ToString());
    }
    std::lock_guard<std::mutex> lock(traffic->mu);
    (full ? traffic->full_ms : traffic->preview_ms).push_back(ms);
    if (outcome.ok()) {
      const mbe::serve::SessionDoneMsg& done = outcome.value().done;
      const auto termination = static_cast<mbe::Termination>(done.termination);
      if (full) {
        report->Check(termination == mbe::Termination::kComplete &&
                          outcome.value().digest == g.ref_digest &&
                          done.results_emitted == g.ref_count,
                      "served full session");
      } else {
        traffic->previews_done.push_back(
            PreviewRecord{termination, done.results_emitted, sink.Take()});
      }
      const double wait_ms = static_cast<double>(done.queue_wait_ns) / 1e6;
      traffic->queue_wait_ms.push_back(wait_ms);
      traffic->run_ms.push_back(1000 * done.seconds);
      traffic->overhead_ms.push_back(ms - 1000 * done.seconds - wait_ms);
      if (trace && !full) {
        traffic->first_batch_ms.push_back(sink.FirstBatchMs(t0));
      }
    }
    (full ? traffic->fulls : traffic->previews).fetch_add(1);
  }
  std::lock_guard<std::mutex> lock(traffic->mu);
  traffic->retries += client.retries();
  traffic->reconnects += client.reconnects();
}

}  // namespace

bool RunServed(const Args& args, RunReport* report) {
  const unsigned nproc = Nproc();
  BenchGraph g = MakeGraph(kGraphName, 1.0, args.seed);
  mbe::RunOptions reference;
  reference.algorithm = mbe::Algorithm::kBbk;
  reference.threads = nproc;
  reference.mbet.bitmap_density = 0;
  if (!PrepareReference(&g, reference)) return false;
  const mbe::serve::LoadGraphMsg load = LoadMessage(g.graph);

  // A relative socket path keeps it inside the run directory and under the
  // 108-byte sun_path limit however deep the checkout is.
  const std::string socket =
      args.run_dir + "/serve-" + std::to_string(getpid()) + ".sock";
  Daemon daemon;
  if (!daemon.Start(args.serve_bin, socket, std::max(1u, nproc - 1))) {
    std::fprintf(stderr, "cannot start %s\n", args.serve_bin.c_str());
    return false;
  }
  mbe::client::ClientOptions control_options;
  control_options.unix_path = socket;
  mbe::client::Client control(control_options);
  bool up = false;
  for (int attempt = 0; attempt < 100 && !up; ++attempt) {
    up = control.Connect().ok();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!up || !control.LoadGraph(load).ok()) {
    std::fprintf(stderr, "daemon %s did not come up on %s\n",
                 args.serve_bin.c_str(), socket.c_str());
    return false;
  }

  // setup_s: time to be ready for the first query, as the median of
  // repeated hot reloads (upload + Engine::Build + registry swap).
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReloads; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = control.ReloadGraph(load).ok();
    setup_s.push_back(SecondsSince(t0));
    report->Check(ok, "setup reload");
  }
  ResetPeakRss(daemon.pid());

  Traffic traffic;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.emplace_back(ClientLoop, i, socket, std::cref(g), std::cref(load),
                         args.trace, &traffic, report);
  }
  while (SecondsSince(start) < kMaxLoopSeconds &&
         (SecondsSince(start) < args.seconds ||
          traffic.previews.load() < kMinPreviews ||
          traffic.fulls.load() < kMinFull)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  traffic.stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall_s = SecondsSince(start);

  MaximalityCheck check(&g.graph);
  for (const PreviewRecord& p : traffic.previews_done) {
    report->Check(
        PreviewOk(g, p.termination, p.results_emitted, p.batch, &check),
        "served preview");
  }

  const auto info = control.GetServerInfo();
  const size_t sessions = traffic.full_ms.size() + traffic.preview_ms.size();
  report->Check(info.ok() && info.value().sessions_completed >= sessions,
                "server info counts every session");
  const double peak_rss_mb = PeakRssMb(daemon.pid());
  control.Close();
  report->Check(daemon.Stop(), "daemon drained and exited cleanly");

  if (!args.trace) {
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report->Add("wall_s", Median(traffic.full_ms) / 1000, "s",
                traffic.full_ms.size());
    report->Add("sessions_per_s", static_cast<double>(sessions) / wall_s,
                "1/s", sessions);
    report->Add("preview_p50_ms", Median(traffic.preview_ms), "ms",
                traffic.preview_ms.size());
    report->Add("preview_p95_ms", Quantile(traffic.preview_ms, 0.95), "ms",
                traffic.preview_ms.size());
    report->Add("peak_rss_mb", peak_rss_mb, "MiB");
    return true;
  }

  // Traced run: the layers under the daemon's sessions, replayed in this
  // process with the daemon's session configuration (MBET, one thread).
  mbe::RunOptions session;
  session.algorithm = mbe::Algorithm::kMbet;
  TraceGraphs({g}, session, report);
  ServeLayers layers;
  layers.queue_wait_p50_ms = Median(traffic.queue_wait_ms);
  layers.queue_wait_p95_ms = Quantile(traffic.queue_wait_ms, 0.95);
  layers.run_p50_ms = Median(traffic.run_ms);
  layers.first_batch_p50_ms = Median(traffic.first_batch_ms);
  layers.overhead_p50_ms = Median(traffic.overhead_ms);
  layers.reload_ms = traffic.reload_ms.empty() ? 1000 * Median(setup_s)
                                               : Median(traffic.reload_ms);
  layers.retries = traffic.retries;
  layers.reconnects = traffic.reconnects;
  layers.sessions = traffic.run_ms.size();
  AddServeLayers(layers, report);
  return true;
}

}  // namespace mbebench
