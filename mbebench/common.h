#ifndef MBEBENCH_COMMON_H_
#define MBEBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/engine.h"
#include "api/options.h"
#include "api/session.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"

/// \file
/// Shared pieces of the repository benchmark (mbebench/README.md): the run
/// report whose JSON form is the last line of stdout, sample statistics,
/// the seeded workload graphs with their cross-engine reference results,
/// preview verification, and the process probes (peak RSS, host stamp).

namespace mbebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A preview session asks for the first this-many bicliques (the anytime
/// use of the library).
inline constexpr uint64_t kPreviewResults = 1000;

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 0;      ///< workload seed; 0 = every graph at its registry seed
  double seconds = 0;     ///< minimum measured window of the end-to-end loop
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string serve_bin;  ///< pmbe_serve executable (serve_mixed)
  std::string run_dir;    ///< directory for the daemon's socket
};

/// Quantile with linear interpolation between closest ranks; 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Geometric mean: combines per-graph latencies of graphs whose sessions
/// differ in size without letting the largest graph dominate.
double GeoMean(const std::vector<double>& values);

/// One run's outcome. Every operation the run verifies is counted in
/// `attempted`; one that is rejected, interrupted or fails verification is
/// also counted in `failed` (error_rate = failed / attempted). Thread-safe.
class RunReport {
 public:
  /// Counts one verified operation; a failure is logged to stderr.
  void Check(bool ok, const std::string& what);
  /// Records a metric; `samples` (0 = not a sampled statistic) goes into
  /// the human-readable table only.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Prints the metric table (name, value, unit, samples) and error rate.
  void PrintTable();
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string ToJson();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One workload input: a registry stand-in regenerated at the workload
/// seed, its engine, and its reference result from a different engine.
struct BenchGraph {
  std::string label;  ///< "AM@0.5"
  uint64_t gen_seed = 0;
  mbe::BipartiteGraph graph;
  std::shared_ptr<const mbe::Engine> engine;  ///< default GraphOptions
  uint64_t ref_digest = 0;
  uint64_t ref_count = 0;
};

/// Generates registry dataset `dataset` (gen/registry.h) at `scale` with the
/// registry's parameters. Workload seed 0 keeps the registry seed; seed s
/// uses registry seed + 1000 s, so each graph of a workload stays distinct.
BenchGraph MakeGraph(const std::string& dataset, double scale, uint64_t seed);

/// Builds `g->engine` and records the FingerprintSink digest and count of a
/// complete run with `reference`. Returns false (logged) on failure.
bool PrepareReference(BenchGraph* g, const mbe::RunOptions& reference);

/// Wall time and result of one timed session.
struct SessionTiming {
  double seconds = 0;
  mbe::RunResult result;
};

/// Runs one full session into a fingerprint, timed; checks it against the
/// reference outside the timed window.
SessionTiming RunFull(const BenchGraph& g, const mbe::RunOptions& options,
                      RunReport* report);

/// Collects every emitted biclique into one batch and stamps when the
/// first batch arrives. Thread-safe (a parallel session's workers share it).
class BatchSink : public mbe::ResultSink {
 public:
  void Emit(std::span<const mbe::VertexId> left,
            std::span<const mbe::VertexId> right) override;
  void EmitBatch(const mbe::BicliqueBatch& batch) override;
  /// Milliseconds from `start` to the first delivery (0 when none came).
  double FirstBatchMs(Clock::time_point start);
  mbe::BicliqueBatch Take();

 private:
  void Stamp();

  std::mutex mu_;
  mbe::BicliqueBatch batch_;
  bool stamped_ = false;
  Clock::time_point first_;
};

/// Checks preview results with mbe::IsMaximalBiclique against the original
/// graph: no duplicates within one preview, every biclique maximal.
/// Verified bicliques are remembered by HashBiclique, because repeated
/// previews return mostly the same bicliques. Thread-safe.
class MaximalityCheck {
 public:
  explicit MaximalityCheck(const mbe::BipartiteGraph* graph) : graph_(graph) {}
  bool Verify(const mbe::BicliqueBatch& batch);

 private:
  const mbe::BipartiteGraph* graph_;
  std::mutex mu_;
  std::unordered_set<uint64_t> verified_;
};

/// Checks one preview: the session stopped at its result budget (or
/// completed below it) with exactly min(kPreviewResults, reference count)
/// distinct maximal bicliques.
bool PreviewOk(const BenchGraph& g, mbe::Termination termination,
               uint64_t results_emitted, const mbe::BicliqueBatch& batch,
               MaximalityCheck* check);

/// Wall seconds of one Engine::Build of `graph` (default GraphOptions).
double TimeBuild(const mbe::BipartiteGraph& graph);
/// Median of `reps` TimeBuild calls.
double MedianBuildSeconds(const mbe::BipartiteGraph& graph, int reps);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double PeakRssMb(int pid = 0);
/// Resets `pid`'s VmHWM to its current RSS (writes 5 to clear_refs). For
/// this process, freed heap is first returned to the OS so memory the
/// harness used while generating inputs does not count.
bool ResetPeakRss(int pid = 0);

/// CPUs this process may run on (the `nproc` the workloads cap threads at).
unsigned Nproc();

/// Host/build stamp recorded with every result: seed, nproc, CPU model,
/// SIMD dispatch level and build type.
std::string StampJson(const Args& args);

/// Serve-layer metrics of a traced run (zero on in-process workloads,
/// where the daemon and client are not on the path).
struct ServeLayers {
  double queue_wait_p50_ms = 0;
  double queue_wait_p95_ms = 0;
  double run_p50_ms = 0;
  double first_batch_p50_ms = 0;
  double overhead_p50_ms = 0;
  double reload_ms = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  size_t sessions = 0;
};
void AddServeLayers(const ServeLayers& layers, RunReport* report);

/// Per-layer replay of `graphs` under the session configuration `options`
/// (inprocess.cc): api, graph, tuner, subtree, engine, sink, simd, memory
/// and, for multi-threaded configurations, parallel metrics.
void TraceGraphs(const std::vector<BenchGraph>& graphs,
                 const mbe::RunOptions& options, RunReport* report);

/// The workloads. Return false (logged) when the run could not be set up;
/// verification failures are counted in the report instead.
bool RunInProcess(const Args& args, RunReport* report);  // inprocess.cc
bool RunServed(const Args& args, RunReport* report);     // served.cc

}  // namespace mbebench

#endif  // MBEBENCH_COMMON_H_
