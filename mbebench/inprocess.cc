// The in-process workload (tuned_parallel) and the per-layer replay every
// workload's traced run uses. See mbebench/README.md for why the workload
// exists and what each metric should move.

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common.h"
#include "core/subtree.h"
#include "core/tuner.h"
#include "graph/ordering.h"
#include "util/memory.h"

namespace mbebench {

namespace {

/// Previews per graph per round. A run has at least kMinRounds rounds, so
/// each graph gets >= 200 previews and its p95 has >= 10 samples beyond it.
constexpr int kPreviewsPerRound = 50;
constexpr size_t kMinRounds = 4;
/// Engine::Build calls per graph after each round, behind setup_s (median
/// per graph): one ms-scale build is far too noisy to compare across runs,
/// and spreading the builds over the window exposes them to the same host
/// conditions as the sessions.
constexpr int kSetupBuildsPerRound = 6;
/// Repetitions behind each traced build/relabel/order/profile median.
constexpr int kTraceReps = 5;
/// Repetitions of each traced session replay (and of its untraced twin):
/// at least kMinReplayReps, and more for short sessions until the
/// sink-chain replays add up to kMinReplaySeconds. The replay with the
/// median time is reported, so one pass caught in a slow host phase moves
/// neither the layers nor the coverage.
constexpr size_t kMinReplayReps = 3;
constexpr size_t kMaxReplayReps = 15;
constexpr double kMinReplaySeconds = 6;

constexpr double kMiB = 1024.0 * 1024.0;

/// tuned_parallel: GH (planted blocks) and YG (hub-dominated). The tuner
/// picks BBK with forced bitmaps on both, so engines/bbk, the stealing
/// driver and the tuner do the work while MBET runs not at all.
const std::vector<std::pair<std::string, double>> kTunedGraphs = {
    {"GH", 1.0}, {"YG", 1.0}};

mbe::RunOptions TunedOptions() {
  mbe::RunOptions options;
  options.auto_tune = true;
  options.threads = Nproc();
  options.scheduling = mbe::Scheduling::kStealing;
  return options;
}

/// The reference engine: pinned MBET, so a wrong BBK answer cannot match.
mbe::RunOptions TunedReference() {
  mbe::RunOptions reference;
  reference.algorithm = mbe::Algorithm::kMbet;
  reference.threads = Nproc();
  return reference;
}

double RunPreview(const BenchGraph& g, const mbe::RunOptions& options,
                  MaximalityCheck* check, RunReport* report) {
  mbe::RunOptions preview = options;
  preview.control.max_results = kPreviewResults;
  BatchSink sink;
  mbe::Session session(g.engine, preview);
  mbe::RunResult result;
  const Clock::time_point start = Clock::now();
  const mbe::util::Status status = session.Run(&sink, &result);
  const double seconds = SecondsSince(start);
  report->Check(status.ok() && PreviewOk(g, result.termination,
                                         result.results_emitted, sink.Take(),
                                         check),
                "preview on " + g.label);
  return seconds;
}

/// Closed loop, one client: each round runs one full session and
/// kPreviewsPerRound previews per graph, then the set-up builds, until the
/// window has passed and kMinRounds rounds are done. Only the sessions
/// themselves are timed: result checks and set-up builds run between them.
void RunEndToEnd(const std::vector<BenchGraph>& graphs,
                 const mbe::RunOptions& options, double seconds,
                 RunReport* report) {
  std::vector<std::unique_ptr<MaximalityCheck>> checks;
  for (const BenchGraph& g : graphs) {
    checks.push_back(std::make_unique<MaximalityCheck>(&g.graph));
  }
  std::vector<std::vector<double>> build_s(graphs.size());
  std::vector<std::vector<double>> preview_ms(graphs.size());
  std::vector<double> round_full_s;
  size_t sessions = 0;
  double session_s = 0;  // every timed session, full and preview
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  while (round_full_s.size() < kMinRounds || SecondsSince(start) < seconds) {
    double full_s = 0;
    for (size_t i = 0; i < graphs.size(); ++i) {
      full_s += RunFull(graphs[i], options, report).seconds;
      for (int p = 0; p < kPreviewsPerRound; ++p) {
        const double s =
            RunPreview(graphs[i], options, checks[i].get(), report);
        session_s += s;
        preview_ms[i].push_back(1000 * s);
      }
      sessions += 1 + kPreviewsPerRound;
    }
    session_s += full_s;
    round_full_s.push_back(full_s);
    for (size_t i = 0; i < graphs.size(); ++i) {
      for (int b = 0; b < kSetupBuildsPerRound; ++b) {
        build_s[i].push_back(TimeBuild(graphs[i].graph));
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();

  double setup_s = 0;
  std::vector<double> preview_p50, preview_p95;
  for (size_t i = 0; i < graphs.size(); ++i) {
    setup_s += Median(build_s[i]);
    preview_p50.push_back(Median(preview_ms[i]));
    preview_p95.push_back(Quantile(preview_ms[i], 0.95));
  }
  const size_t rounds = round_full_s.size();
  report->Add("setup_s", setup_s, "s",
              rounds * kSetupBuildsPerRound * graphs.size());
  report->Add("wall_s", Median(round_full_s), "s", rounds);
  report->Add("sessions_per_s", static_cast<double>(sessions) / session_s,
              "1/s", sessions);
  report->Add("preview_p50_ms", GeoMean(preview_p50), "ms",
              rounds * kPreviewsPerRound * graphs.size());
  report->Add("preview_p95_ms", GeoMean(preview_p95), "ms",
              rounds * kPreviewsPerRound * graphs.size());
  report->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

// --- Traced replay ---------------------------------------------------------

/// Wraps a session's run_sink(): times every delivery into the
/// translate -> control chain.
class TimingSink : public mbe::ResultSink {
 public:
  explicit TimingSink(mbe::ResultSink* inner) : inner_(inner) {}

  void Emit(std::span<const mbe::VertexId> left,
            std::span<const mbe::VertexId> right) override {
    const Clock::time_point start = Clock::now();
    inner_->Emit(left, right);
    seconds_ += SecondsSince(start);
    ++batches_;
  }
  void EmitBatch(const mbe::BicliqueBatch& batch) override {
    const Clock::time_point start = Clock::now();
    inner_->EmitBatch(batch);
    seconds_ += SecondsSince(start);
    ++batches_;
  }
  bool ShouldStop() const override { return inner_->ShouldStop(); }

  double seconds() const { return seconds_; }
  uint64_t batches() const { return batches_; }

 private:
  mbe::ResultSink* inner_;
  double seconds_ = 0;
  uint64_t batches_ = 0;
};

/// One session replayed single-threaded through the cooperative API
/// (Prepare / MakeWorker / Finish), the way the daemon's pool drives it, as
/// two copies run task by task in alternation:
///  * the sink-chain copy feeds its worker through a BufferedSink into a
///    timing sink around run_sink() (translate -> control chain), times
///    every EnumerateSubtree(v), and is digest-checked;
///  * the engine copy emits straight into a CountSink and times
///    SubtreeBuilder::Build(v) and then EnumerateSubtree(v). Its task time
///    includes the engine's own root build of v, so the engine's self time
///    is task time - root-build time, measured apart from the sink chain.
/// Which copy runs a task first alternates with v, and a host slowdown hits
/// both copies alike, so the layers and the session time they must add up
/// to can be compared.
struct Replay {
  double prepare_s = 0;
  double wall_s = 0;      ///< sink-chain copy: Prepare + tasks + Finish
  double task_sum_s = 0;  ///< sink-chain copy: every task plus the flush
  double task_max_s = 0;
  double sink_s = 0;
  uint64_t sink_batches = 0;
  double root_s = 0;         ///< engine copy: SubtreeBuilder::Build
  double engine_task_s = 0;  ///< engine copy: every task
  uint64_t roots = 0;
  uint64_t pruned = 0;
  mbe::RunResult result;  ///< sink-chain copy
};

Replay ReplayTraced(const BenchGraph& g, const mbe::RunOptions& options,
                    RunReport* report) {
  Replay out;
  mbe::FingerprintSink fingerprint;
  mbe::CountSink count;
  mbe::Session chain(g.engine, options);
  mbe::Session bare(g.engine, options);
  Clock::time_point start = Clock::now();
  const mbe::util::Status status = chain.Prepare(&fingerprint);
  out.prepare_s = SecondsSince(start);
  const mbe::util::Status bare_status = bare.Prepare(&count);
  if (status.ok() && bare_status.ok()) {
    // Each copy's allocations are charged, and released, under its own
    // session's budget binding; the sink-chain copy's is the outer one.
    mbe::util::ScopedBudgetBinding binding(&chain.budget());
    TimingSink timing(chain.run_sink());
    std::unique_ptr<mbe::SubtreeWorker> worker = chain.MakeWorker();
    auto buffered = std::make_unique<mbe::BufferedSink>(&timing);
    std::unique_ptr<mbe::SubtreeWorker> bare_worker;
    {
      mbe::util::ScopedBudgetBinding bare_binding(&bare.budget());
      bare_worker = bare.MakeWorker();
    }
    mbe::SubtreeBuilder builder(g.engine->graph());
    mbe::SubtreeRoot root;
    std::vector<mbe::VertexId> absorbed;

    auto run_chain = [&](mbe::VertexId v) {
      const Clock::time_point task_start = Clock::now();
      worker->EnumerateSubtree(v, buffered.get());
      const double task_s = SecondsSince(task_start);
      out.task_sum_s += task_s;
      out.task_max_s = std::max(out.task_max_s, task_s);
    };
    auto run_bare = [&](mbe::VertexId v) {
      mbe::util::ScopedBudgetBinding bare_binding(&bare.budget());
      bool pruned = false;
      Clock::time_point t = Clock::now();
      if (builder.Build(v, &root, &absorbed, &pruned)) {
        ++out.roots;
      } else if (pruned) {
        ++out.pruned;
      }
      out.root_s += SecondsSince(t);
      t = Clock::now();
      bare_worker->EnumerateSubtree(v, &count);
      out.engine_task_s += SecondsSince(t);
    };
    for (size_t v = 0; v < chain.task_count(); ++v) {
      const auto vertex = static_cast<mbe::VertexId>(v);
      if (v % 2 == 0) {
        run_chain(vertex);
        run_bare(vertex);
      } else {
        run_bare(vertex);
        run_chain(vertex);
      }
    }
    start = Clock::now();
    buffered->Flush();
    out.task_sum_s += SecondsSince(start);
    chain.AddWorkerStats(worker->stats());
    {
      mbe::util::ScopedBudgetBinding bare_binding(&bare.budget());
      bare.AddWorkerStats(bare_worker->stats());
      bare_worker.reset();
      bare.Finish(nullptr);
    }
    buffered.reset();
    worker.reset();
    out.sink_s = timing.seconds();
    out.sink_batches = timing.batches();
    start = Clock::now();
    chain.Finish(&out.result);
    out.wall_s = out.prepare_s + out.task_sum_s + SecondsSince(start);
  }
  report->Check(status.ok() && out.result.complete() &&
                    fingerprint.Digest() == g.ref_digest &&
                    fingerprint.count() == g.ref_count,
                "traced replay on " + g.label);
  report->Check(bare_status.ok() && count.count() == g.ref_count,
                "engine replay on " + g.label);
  return out;
}

/// Engine::Build's left relabeling: hub-first (descending degree), stable.
std::vector<mbe::VertexId> HubFirstLeft(const mbe::BipartiteGraph& graph) {
  std::vector<mbe::VertexId> perm(graph.num_left());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](mbe::VertexId a, mbe::VertexId b) {
                     return graph.LeftDegree(a) > graph.LeftDegree(b);
                   });
  return perm;
}

struct BuildReplay {
  double build_s = 0;
  double relabel_s = 0;
  double order_s = 0;
  double profile_s = 0;
};

/// Times Engine::Build, then replays its steps on the same input with the
/// default GraphOptions: the side swap and both relabelings (graph), the
/// right-side order (graph), and the profile (tuner). Medians of
/// kTraceReps.
BuildReplay ReplayBuild(const mbe::BipartiteGraph& graph) {
  const mbe::GraphOptions options;
  const bool swap =
      options.auto_swap_sides && graph.num_right() > graph.num_left();
  std::vector<double> relabel, order, profile;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    Clock::time_point start = Clock::now();
    mbe::BipartiteGraph work = swap ? graph.Swapped() : graph;
    double relabel_s = SecondsSince(start);
    const std::vector<mbe::VertexId> left_perm = HubFirstLeft(work);
    start = Clock::now();
    work = work.Swapped().RelabelRight(left_perm).Swapped();
    relabel_s += SecondsSince(start);
    start = Clock::now();
    const std::vector<mbe::VertexId> right_perm =
        mbe::MakeOrder(work, options.order, options.seed);
    order.push_back(SecondsSince(start));
    start = Clock::now();
    work = work.RelabelRight(right_perm);
    relabel.push_back(relabel_s + SecondsSince(start));
    start = Clock::now();
    mbe::ProfileGraph(work, options.seed);
    profile.push_back(SecondsSince(start));
  }
  return BuildReplay{MedianBuildSeconds(graph, kTraceReps), Median(relabel),
                     Median(order), Median(profile)};
}

/// The element of `items` whose `key` is the median (the upper median for
/// an even count).
template <typename T, typename Key>
T MedianBy(std::vector<T> items, Key key) {
  std::sort(items.begin(), items.end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
  return items[items.size() / 2];
}

}  // namespace

void TraceGraphs(const std::vector<BenchGraph>& graphs,
                 const mbe::RunOptions& options, RunReport* report) {
  BuildReplay build;
  double prepare_s = 0;
  double root_s = 0;
  uint64_t roots = 0, pruned = 0;
  // Engine layers, indexed 0 = MBET, 1 = BBK (whichever the session ran).
  double self_s[2] = {0, 0};
  double task_max_s[2] = {0, 0};
  uint64_t nodes[2] = {0, 0};
  mbe::EnumStats stats;
  double sink_s = 0;
  uint64_t sink_batches = 0;
  double replay_s = 0, untraced_s = 0, task_sum_s = 0, max_share = 0;
  double layers_s = 0;  // build + root build + engine self + sink
  double busy_s = 0, idle_s = 0, parallel_wall_s = 0;
  uint64_t steals = 0, split_tasks = 0;

  for (const BenchGraph& g : graphs) {
    const BuildReplay b = ReplayBuild(g.graph);
    build.build_s += b.build_s;
    build.relabel_s += b.relabel_s;
    build.order_s += b.order_s;
    build.profile_s += b.profile_s;

    // Each replay beside the same session untraced, also on one thread:
    // the tracing overhead.
    mbe::RunOptions serial = options;
    serial.threads = 1;
    std::vector<Replay> replays;
    std::vector<double> untraced;
    double replays_s = 0;
    while (replays.size() < kMinReplayReps ||
           (replays_s < kMinReplaySeconds &&
            replays.size() < kMaxReplayReps)) {
      replays.push_back(ReplayTraced(g, options, report));
      replays_s += replays.back().wall_s;
      untraced.push_back(RunFull(g, serial, report).seconds);
    }
    const Replay r =
        MedianBy(replays, [](const Replay& x) { return x.wall_s; });
    untraced_s += Median(untraced);
    root_s += r.root_s;
    roots += r.roots;
    pruned += r.pruned;
    const int e = r.result.stats.tuned_algorithm ==
                          static_cast<uint64_t>(mbe::TunerEngine::kBbk)
                      ? 1
                      : 0;
    self_s[e] += r.engine_task_s - r.root_s;
    layers_s += b.build_s + r.engine_task_s + r.sink_s;
    task_max_s[e] = std::max(task_max_s[e], r.task_max_s);
    nodes[e] += r.result.stats.nodes_expanded;
    stats.MergeFrom(r.result.stats);
    prepare_s += r.prepare_s;
    sink_s += r.sink_s;
    sink_batches += r.sink_batches;
    replay_s += r.wall_s;
    task_sum_s += r.task_sum_s;
    if (r.task_sum_s > 0) {
      max_share = std::max(max_share, r.task_max_s / r.task_sum_s);
    }

    if (options.threads > 1) {
      const SessionTiming run = RunFull(g, options, report);
      busy_s += static_cast<double>(run.result.stats.busy_ns) / 1e9;
      idle_s += static_cast<double>(run.result.stats.idle_ns) / 1e9;
      steals += run.result.stats.steals;
      split_tasks += run.result.stats.split_tasks;
      parallel_wall_s += run.seconds;
    }
  }

  report->Add("api.build_ms", 1000 * build.build_s, "ms", kTraceReps);
  report->Add("api.prepare_ms", 1000 * prepare_s, "ms");
  report->Add("graph.relabel_ms", 1000 * build.relabel_s, "ms", kTraceReps);
  report->Add("graph.order_ms", 1000 * build.order_s, "ms", kTraceReps);
  report->Add("tuner.profile_ms", 1000 * build.profile_s, "ms", kTraceReps);
  report->Add("subtree.build_s", root_s, "s");
  report->Add("subtree.roots", static_cast<double>(roots), "count");
  report->Add("subtree.pruned", static_cast<double>(pruned), "count");
  report->Add("mbet.self_s", self_s[0], "s");
  report->Add("mbet.task_max_ms", 1000 * task_max_s[0], "ms");
  report->Add("mbet.nodes", static_cast<double>(nodes[0]), "count");
  const bool mbet_ran = nodes[0] > 0;
  report->Add("mbet.aggregated",
              mbet_ran ? static_cast<double>(stats.vertices_aggregated) : 0,
              "count");
  report->Add("mbet.trie_probe_ratio",
              mbet_ran && stats.local_scan_size > 0
                  ? static_cast<double>(stats.trie_probes) /
                        static_cast<double>(stats.local_scan_size)
                  : 0,
              "ratio");
  report->Add("mbet.bitmap_conversions",
              mbet_ran ? static_cast<double>(stats.bitmap_conversions) : 0,
              "count");
  report->Add("mbet.batch_candidates",
              mbet_ran ? static_cast<double>(stats.batch_candidates_classified)
                       : 0,
              "count");
  report->Add("bbk.self_s", self_s[1], "s");
  report->Add("bbk.task_max_ms", 1000 * task_max_s[1], "ms");
  report->Add("bbk.nodes", static_cast<double>(nodes[1]), "count");
  report->Add("sink.emit_s", sink_s, "s");
  report->Add("sink.batches", static_cast<double>(sink_batches), "count");
  report->Add("simd.intersect_calls",
              static_cast<double>(stats.simd_intersect_calls), "count");
  report->Add("simd.mask_calls", static_cast<double>(stats.simd_mask_calls),
              "count");
  report->Add("simd.word_calls", static_cast<double>(stats.simd_word_calls),
              "count");
  report->Add("simd.batch_calls", static_cast<double>(stats.simd_batch_calls),
              "count");
  report->Add("memory.peak_charged_mb",
              static_cast<double>(stats.peak_charged_bytes) / kMiB, "MiB");
  const double threads = static_cast<double>(options.threads);
  report->Add("parallel.busy_s", busy_s, "s");
  report->Add("parallel.idle_s", idle_s, "s");
  report->Add("parallel.steals", static_cast<double>(steals), "count");
  report->Add("parallel.split_tasks", static_cast<double>(split_tasks),
              "count");
  report->Add("parallel.efficiency",
              parallel_wall_s > 0 ? task_sum_s / (threads * parallel_wall_s)
                                  : 0,
              "ratio");
  report->Add("parallel.max_subtree_share",
              options.threads > 1 ? max_share : 0, "ratio");
  // Traced session wall = build + the sink-chain copy's session time. The
  // layers come from other clocks: build, the engine copy (root build +
  // engine self) and the sink timer, so work none of them sees lowers the
  // coverage.
  report->Add("trace.replay_s", replay_s, "s");
  report->Add("trace.untraced_s", untraced_s, "s");
  report->Add("trace.coverage", layers_s / (build.build_s + replay_s),
              "ratio");
}

bool RunInProcess(const Args& args, RunReport* report) {
  std::vector<BenchGraph> graphs;
  for (const auto& [dataset, scale] : kTunedGraphs) {
    graphs.push_back(MakeGraph(dataset, scale, args.seed));
    if (!PrepareReference(&graphs.back(), TunedReference())) return false;
  }
  if (args.trace) {
    TraceGraphs(graphs, TunedOptions(), report);
    AddServeLayers(ServeLayers{}, report);
  } else {
    RunEndToEnd(graphs, TunedOptions(), args.seconds, report);
  }
  return true;
}

}  // namespace mbebench
