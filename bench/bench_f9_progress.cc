// F9 — progress over time on the largest stand-in (TVTropes-like):
// cumulative % of maximal bicliques emitted vs wall time for MBET and
// MBETM. Expected shape: steady near-linear emission; MBETM trails MBET by
// a constant factor (its per-node recomputation cost).

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

/// Sink recording emission timestamps at power-of-two-ish checkpoints.
class ProgressSink : public mbe::ResultSink {
 public:
  explicit ProgressSink(double deadline_seconds)
      : deadline_(deadline_seconds) {}

  void Emit(std::span<const mbe::VertexId>,
            std::span<const mbe::VertexId>) override {
    const uint64_t n = ++count_;
    if (n == next_checkpoint_) {
      checkpoints_.emplace_back(n, timer_.Seconds());
      next_checkpoint_ = next_checkpoint_ * 2;
    }
  }

  bool ShouldStop() const override { return timer_.Seconds() >= deadline_; }

  uint64_t count() const { return count_; }
  const std::vector<std::pair<uint64_t, double>>& checkpoints() const {
    return checkpoints_;
  }
  double elapsed() const { return timer_.Seconds(); }

 private:
  mbe::util::WallTimer timer_;
  double deadline_;
  uint64_t count_ = 0;
  uint64_t next_checkpoint_ = 1024;
  std::vector<std::pair<uint64_t, double>> checkpoints_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("dataset", "DBT", "which stand-in to run");
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget =
      flags.GetDouble("budget") > 0 ? flags.GetDouble("budget") : 30.0;

  bench::PrintBanner("F9", "progress over time on the largest stand-in");
  BipartiteGraph graph =
      gen::Materialize(gen::FindDataset(flags.GetString("dataset")), scale);
  std::printf("graph: %s\n\n", graph.Summary().c_str());

  for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kMbetM}) {
    ProgressSink sink(budget);
    RunOptions options;
    options.algorithm = algorithm;
    options.threads = static_cast<unsigned>(flags.GetInt("threads"));
    if (options.threads == 0) options.threads = 1;
    const util::Status status =
        Enumerate(graph, GraphOptions(), options, &sink, nullptr);
    PMBE_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
    std::printf("%s: %s bicliques in %s%s\n", AlgorithmName(algorithm),
                util::HumanCount(static_cast<double>(sink.count())).c_str(),
                util::HumanSeconds(sink.elapsed()).c_str(),
                sink.elapsed() >= budget ? " (budget hit)" : "");
    for (const auto& [n, t] : sink.checkpoints()) {
      std::printf("  %12llu bicliques @ %s\n",
                  static_cast<unsigned long long>(n),
                  util::HumanSeconds(t).c_str());
    }
  }
  return 0;
}
