// M10 — micro-benchmarks (google-benchmark) for the kernels underneath the
// enumerators: sorted-set intersection (merge vs gallop regimes), mask
// probes, trie build, and trie classification vs direct scans at varying
// prefix-sharing levels. The SIMD-sensitive benches carry the kernel
// dispatch level as their last argument (0 scalar, 2 avx2) so
// one run produces the per-ISA columns bench/BENCH_setops.json records;
// levels the host cannot run are reported as skipped, not as zeros.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <ctime>
#include <ostream>
#include <string>
#include <vector>

#include "core/neighborhood_trie.h"
#include "core/set_ops.h"
#include "util/random.h"
#include "util/simd.h"

namespace {

using mbe::MembershipMask;
using mbe::NeighborhoodTrie;
using mbe::VertexId;

const std::vector<int64_t> kDispatchLevels = {
    static_cast<int64_t>(mbe::simd::DispatchLevel::kScalar),
    static_cast<int64_t>(mbe::simd::DispatchLevel::kAVX2)};

// Restores the ambient dispatch level when a pinned bench finishes, so
// later benches (and the trailing trie suite) run at the default level.
struct DispatchGuard {
  mbe::simd::DispatchLevel prev = mbe::simd::ActiveLevel();
  ~DispatchGuard() { mbe::simd::ForceLevel(prev); }
};

// Pins the dispatch level carried in the bench's last argument. Returns
// false after flagging the run as skipped when the build or CPU lacks the
// level (the JSON then shows error_occurred instead of a bogus number).
bool PinDispatch(benchmark::State& state, int level_arg_index) {
  const auto want =
      static_cast<mbe::simd::DispatchLevel>(state.range(level_arg_index));
  if (mbe::simd::ForceLevel(want) != want) {
    state.SkipWithError("dispatch level unavailable on this host");
    return false;
  }
  state.SetLabel(mbe::simd::DispatchLevelName(want));
  return true;
}

std::vector<VertexId> RandomSortedSet(size_t n, size_t universe,
                                      mbe::util::Rng& rng) {
  std::vector<VertexId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(rng.Below(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BM_IntersectBalanced(benchmark::State& state) {
  DispatchGuard guard;
  if (!PinDispatch(state, 1)) return;
  mbe::util::Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(n, n * 4, rng);
  auto b = RandomSortedSet(n, n * 4, rng);
  std::vector<VertexId> out;
  for (auto _ : state) {
    mbe::Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)
    ->ArgsProduct({benchmark::CreateRange(64, 1 << 14, 8), kDispatchLevels})
    ->ArgNames({"n", "isa"});

void BM_IntersectLopsided(benchmark::State& state) {
  mbe::util::Rng rng(2);
  const size_t n = static_cast<size_t>(state.range(0));
  auto small = RandomSortedSet(32, n * 4, rng);
  auto big = RandomSortedSet(n, n * 4, rng);
  std::vector<VertexId> out;
  for (auto _ : state) {
    mbe::Intersect(small, big, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectLopsided)->Range(1 << 10, 1 << 16);

// --- IntersectInto strategy sweep ---------------------------------------
// Two random sets over a fixed universe whose size is `density`% of the
// universe; compares the merge loop and galloping search on identical
// inputs (IntersectStrategy::kAuto picks between them by size ratio).

constexpr size_t kSweepUniverse = 1 << 13;

std::pair<std::vector<VertexId>, std::vector<VertexId>> MakeDensityPair(
    benchmark::State& state) {
  mbe::util::Rng rng(11);
  const size_t n = kSweepUniverse * static_cast<size_t>(state.range(0)) / 100;
  return {RandomSortedSet(n, kSweepUniverse, rng),
          RandomSortedSet(n, kSweepUniverse, rng)};
}

const std::vector<int64_t> kDensities = {1, 5, 10, 25, 50, 90};

void BM_SetOpsMerge(benchmark::State& state) {
  DispatchGuard guard;
  if (!PinDispatch(state, 1)) return;
  auto [a, b] = MakeDensityPair(state);
  std::vector<VertexId> out;
  for (auto _ : state) {
    mbe::IntersectInto(a, b, &out, mbe::IntersectStrategy::kMerge);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_SetOpsMerge)
    ->ArgsProduct({kDensities, kDispatchLevels})
    ->ArgNames({"density", "isa"});

void BM_SetOpsGallop(benchmark::State& state) {
  auto [a, b] = MakeDensityPair(state);
  std::vector<VertexId> out;
  for (auto _ : state) {
    mbe::IntersectInto(a, b, &out, mbe::IntersectStrategy::kGallop);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_SetOpsGallop)->Arg(1)->Arg(5)->Arg(10)->Arg(25)->Arg(50)->Arg(90);

void BM_MaskProbe(benchmark::State& state) {
  DispatchGuard guard;
  if (!PinDispatch(state, 1)) return;
  mbe::util::Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  auto set = RandomSortedSet(n / 2, n, rng);
  auto probe = RandomSortedSet(n / 2, n, rng);
  MembershipMask mask(n);
  mask.Set(set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbe::IntersectSizeWithMask(probe, mask));
  }
  mask.Clear(set);
}
BENCHMARK(BM_MaskProbe)
    ->ArgsProduct({benchmark::CreateRange(256, 1 << 14, 8), kDispatchLevels})
    ->ArgNames({"n", "isa"});

// Builds `groups` lists of length `len` over a universe, sharing a common
// prefix of `shared` elements — the knob that decides whether the trie
// pays off.
struct TrieInput {
  std::vector<std::vector<VertexId>> lists;
  std::vector<std::span<const VertexId>> spans;
  MembershipMask mask;
};

TrieInput MakeTrieInput(size_t groups, size_t len, size_t shared) {
  mbe::util::Rng rng(4);
  const size_t universe = 1 << 16;
  TrieInput input;
  auto prefix = RandomSortedSet(shared, universe / 4, rng);
  for (size_t g = 0; g < groups; ++g) {
    auto tail =
        RandomSortedSet(len - prefix.size(), universe - universe / 4, rng);
    std::vector<VertexId> list = prefix;
    for (VertexId x : tail) {
      list.push_back(static_cast<VertexId>(x + universe / 4));
    }
    input.lists.push_back(std::move(list));
  }
  for (const auto& l : input.lists) input.spans.emplace_back(l);
  input.mask.EnsureUniverse(universe + 1);
  auto members = RandomSortedSet(universe / 2, universe, rng);
  input.mask.Set(members);
  return input;
}

void BM_TrieClassify(benchmark::State& state) {
  const size_t shared = static_cast<size_t>(state.range(0));
  TrieInput input = MakeTrieInput(256, 64, shared);
  NeighborhoodTrie trie;
  trie.Build(input.spans);
  std::vector<uint32_t> counts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.ClassifyAll(input.mask, &counts));
  }
  state.counters["trie_nodes"] = static_cast<double>(trie.num_nodes());
}
BENCHMARK(BM_TrieClassify)->Arg(0)->Arg(16)->Arg(32)->Arg(48)->Arg(60);

void BM_DirectClassify(benchmark::State& state) {
  const size_t shared = static_cast<size_t>(state.range(0));
  TrieInput input = MakeTrieInput(256, 64, shared);
  std::vector<uint32_t> counts(input.spans.size());
  for (auto _ : state) {
    for (size_t g = 0; g < input.spans.size(); ++g) {
      counts[g] = static_cast<uint32_t>(
          mbe::IntersectSizeWithMask(input.spans[g], input.mask));
    }
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_DirectClassify)->Arg(0)->Arg(16)->Arg(32)->Arg(48)->Arg(60);

void BM_TrieBuild(benchmark::State& state) {
  const size_t shared = static_cast<size_t>(state.range(0));
  TrieInput input = MakeTrieInput(256, 64, shared);
  NeighborhoodTrie trie;
  for (auto _ : state) {
    trie.Build(input.spans);
    benchmark::DoNotOptimize(trie.num_nodes());
  }
}
BENCHMARK(BM_TrieBuild)->Arg(0)->Arg(32)->Arg(60);

// The stock JSONReporter stamps *libbenchmark's* build type into
// "library_build_type" — on distro packages that reads "debug" even when
// this library is an -O2 release build, tripping the CI freshness check on
// bench/BENCH_setops.json. Re-emit the context head with the build type of
// the code actually being measured (this translation unit's NDEBUG),
// keeping the structural shape the base class's ReportRuns/Finalize
// continue from.
class ReleaseTaggedJsonReporter : public benchmark::JSONReporter {
 public:
  bool ReportContext(const Context& context) override {
    std::ostream& out = GetOutputStream();
    char date[64] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
    }
    out << "{\n  \"context\": {\n";
    out << "    \"date\": \"" << date << "\",\n";
    out << "    \"executable\": \"" << context.executable_name << "\",\n";
    out << "    \"num_cpus\": " << context.cpu_info.num_cpus << ",\n";
    out << "    \"mhz_per_cpu\": "
        << static_cast<long>(context.cpu_info.cycles_per_second * 1e-6)
        << ",\n";
    out << "    \"simd_level\": \""
        << mbe::simd::DispatchLevelName(mbe::simd::ActiveLevel())
        << "\",\n";
#ifdef NDEBUG
    out << "    \"library_build_type\": \"release\"\n";
#else
    out << "    \"library_build_type\": \"debug\"\n";
#endif
    out << "  },\n  \"benchmarks\": [\n";
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --allow_debug (ours; stripped before libbenchmark parses the rest)
  // gates recording JSON from unoptimized builds, mirroring the
  // bench/harness.cc policy for the table binaries.
  bool allow_debug = false;
  bool wants_file = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow_debug") {
      allow_debug = true;
      continue;
    }
    if (arg.rfind("--benchmark_out=", 0) == 0 && arg.size() > 16) {
      wants_file = true;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
#ifndef NDEBUG
  if (wants_file && !allow_debug) {
    std::fprintf(stderr,
                 "error: refusing --benchmark_out from a debug build — "
                 "unoptimized timings are not comparable to the committed "
                 "BENCH_*.json baselines. Rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release, or pass --allow_debug for a "
                 "throwaway recording.\n");
    return 1;
  }
#endif
  (void)allow_debug;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::ConsoleReporter display;
  ReleaseTaggedJsonReporter json;
  if (wants_file) {
    benchmark::RunSpecifiedBenchmarks(&display, &json);
  } else {
    benchmark::RunSpecifiedBenchmarks(&display);
  }
  benchmark::Shutdown();
  return 0;
}
