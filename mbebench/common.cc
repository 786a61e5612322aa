#include "common.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "api/session.h"
#include "core/biclique.h"
#include "core/verify.h"
#include "gen/registry.h"
#include "util/simd.h"

namespace mbebench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string ProcPath(int pid, const char* file) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         file;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void RunReport::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void RunReport::Add(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0, unit,
                            samples});
}

void RunReport::PrintTable() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Metric& m : metrics_) {
    std::printf("%-28s %16.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
  std::printf("error_rate %.6f (%llu failed / %llu attempted)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
}

std::string RunReport::ToJson() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

BenchGraph MakeGraph(const std::string& dataset, double scale, uint64_t seed) {
  mbe::gen::DatasetSpec spec = mbe::gen::FindDataset(dataset);
  spec.seed += 1000 * seed;
  char label[64];
  std::snprintf(label, sizeof(label), "%s@%g", dataset.c_str(), scale);
  BenchGraph g;
  g.label = label;
  g.gen_seed = spec.seed;
  g.graph = mbe::gen::Materialize(spec, scale);
  return g;
}

bool PrepareReference(BenchGraph* g, const mbe::RunOptions& reference) {
  auto engine = mbe::Engine::Build(g->graph, mbe::GraphOptions{});
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build for %s: %s\n", g->label.c_str(),
                 engine.status().ToString().c_str());
    return false;
  }
  g->engine = std::move(engine).value();
  mbe::FingerprintSink sink;
  mbe::Session session(g->engine, reference);
  mbe::RunResult result;
  const Clock::time_point start = Clock::now();
  const mbe::util::Status status = session.Run(&sink, &result);
  if (!status.ok() || !result.complete()) {
    std::fprintf(stderr, "reference run on %s failed: %s\n",
                 g->label.c_str(),
                 status.ok() ? mbe::TerminationName(result.termination)
                             : status.ToString().c_str());
    return false;
  }
  g->ref_digest = sink.Digest();
  g->ref_count = sink.count();
  std::printf("graph %s (generation seed %llu): %s; reference %s: %llu "
              "bicliques in %.3fs\n",
              g->label.c_str(), static_cast<unsigned long long>(g->gen_seed),
              g->graph.Summary().c_str(),
              mbe::AlgorithmName(reference.algorithm),
              static_cast<unsigned long long>(g->ref_count),
              SecondsSince(start));
  return true;
}

SessionTiming RunFull(const BenchGraph& g, const mbe::RunOptions& options,
                      RunReport* report) {
  mbe::FingerprintSink sink;
  mbe::Session session(g.engine, options);
  SessionTiming out;
  const Clock::time_point start = Clock::now();
  const mbe::util::Status status = session.Run(&sink, &out.result);
  out.seconds = SecondsSince(start);
  report->Check(status.ok() && out.result.complete() &&
                    sink.Digest() == g.ref_digest &&
                    sink.count() == g.ref_count,
                "full session on " + g.label);
  return out;
}

void BatchSink::Stamp() {
  if (!stamped_) {
    stamped_ = true;
    first_ = Clock::now();
  }
}

void BatchSink::Emit(std::span<const mbe::VertexId> left,
                     std::span<const mbe::VertexId> right) {
  std::lock_guard<std::mutex> lock(mu_);
  Stamp();
  batch_.Append(left, right);
}

void BatchSink::EmitBatch(const mbe::BicliqueBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  Stamp();
  for (size_t i = 0; i < batch.size(); ++i) {
    batch_.Append(batch.left(i), batch.right(i));
  }
}

double BatchSink::FirstBatchMs(Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  return stamped_
             ? std::chrono::duration<double, std::milli>(first_ - start)
                   .count()
             : 0;
}

mbe::BicliqueBatch BatchSink::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(batch_);
}

bool MaximalityCheck::Verify(const mbe::BicliqueBatch& batch) {
  std::unordered_set<uint64_t> seen;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto left = batch.left(i);
    const auto right = batch.right(i);
    const uint64_t hash = mbe::HashBiclique(left, right);
    if (!seen.insert(hash).second) return false;
    if (verified_.count(hash) > 0) continue;
    const mbe::Biclique b{{left.begin(), left.end()},
                          {right.begin(), right.end()}};
    if (!mbe::IsMaximalBiclique(*graph_, b)) return false;
    verified_.insert(hash);
  }
  return true;
}

bool PreviewOk(const BenchGraph& g, mbe::Termination termination,
               uint64_t results_emitted, const mbe::BicliqueBatch& batch,
               MaximalityCheck* check) {
  const uint64_t want = std::min(kPreviewResults, g.ref_count);
  const bool stopped_right =
      termination == mbe::Termination::kBudget ||
      (termination == mbe::Termination::kComplete && want == g.ref_count);
  return stopped_right && results_emitted == want && batch.size() == want &&
         check->Verify(batch);
}

double TimeBuild(const mbe::BipartiteGraph& graph) {
  const Clock::time_point start = Clock::now();
  auto engine = mbe::Engine::Build(graph, mbe::GraphOptions{});
  return SecondsSince(start);  // before the engine is destroyed
}

double MedianBuildSeconds(const mbe::BipartiteGraph& graph, int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(TimeBuild(graph));
  return Median(std::move(samples));
}

double PeakRssMb(int pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

bool ResetPeakRss(int pid) {
  if (pid == 0) malloc_trim(0);
  std::ofstream out(ProcPath(pid, "clear_refs"));
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string StampJson(const Args& args) {
  return "{\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(Nproc()) +
         ", \"cpu_model\": " + JsonString(CpuModel()) + ", \"simd\": " +
         JsonString(mbe::simd::DispatchLevelName(mbe::simd::ActiveLevel())) +
         ", \"build_type\": " + JsonString(MBEBENCH_BUILD_TYPE) + "}";
}

void AddServeLayers(const ServeLayers& layers, RunReport* report) {
  report->Add("serve.queue_wait_p50_ms", layers.queue_wait_p50_ms, "ms",
              layers.sessions);
  report->Add("serve.queue_wait_p95_ms", layers.queue_wait_p95_ms, "ms",
              layers.sessions);
  report->Add("serve.run_p50_ms", layers.run_p50_ms, "ms", layers.sessions);
  report->Add("serve.first_batch_p50_ms", layers.first_batch_p50_ms, "ms");
  report->Add("serve.overhead_p50_ms", layers.overhead_p50_ms, "ms",
              layers.sessions);
  report->Add("serve.reload_ms", layers.reload_ms, "ms");
  report->Add("client.retries", static_cast<double>(layers.retries), "count");
  report->Add("client.reconnects", static_cast<double>(layers.reconnects),
              "count");
}

}  // namespace mbebench
