// fuzz_frontier — fuzz harness for the task-frontier snapshot codec.
//
// Feeds arbitrary bytes to DecodeSnapshot (snapshot/frontier.h). The
// codec's contract under hostile input: a typed Status — never a crash,
// never an abort, never an allocation proportional to a corrupt count
// claim — and any snapshot it does accept must round-trip:
// EncodeSnapshot(DecodeSnapshot(bytes)) reproduces the input byte for
// byte (the canonical encoding the resume and shard-merge digest-identity
// checks lean on).
//
// Built under -DPMBE_BUILD_FUZZERS=ON. With `-fsanitize=fuzzer` (clang)
// this is a libFuzzer target:
//
//   ./fuzz_frontier corpus/ -max_len=4096
//
// Otherwise (gcc) it falls back to a standalone driver mirroring
// fuzz_wire: replay file arguments, then run a deterministic seed-corpus
// + random-mutation loop, so CI always has this leg.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "snapshot/frontier.h"

namespace {

void CheckRoundTrip(std::span<const uint8_t> input,
                    const mbe::snapshot::FrontierSnapshot& snapshot) {
  std::vector<uint8_t> reencoded;
  if (!mbe::snapshot::EncodeSnapshot(snapshot, &reencoded).ok()) {
    std::fprintf(stderr, "decoded snapshot failed to re-encode\n");
    __builtin_trap();
  }
  if (reencoded.size() != input.size() ||
      std::memcmp(reencoded.data(), input.data(), input.size()) != 0) {
    std::fprintf(stderr, "non-canonical snapshot survived decoding\n");
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> input(data, size);
  if (auto decoded = mbe::snapshot::DecodeSnapshot(input); decoded.ok()) {
    CheckRoundTrip(input, decoded.value());
  }
  return 0;
}

#if defined(PMBE_FUZZ_STANDALONE)

#include <fstream>
#include <sstream>
#include <string>

#include "util/random.h"

namespace {

/// Seed corpus: valid snapshots in several shapes (mutations then explore
/// every decoder from the accepting boundary), plus framing edge cases.
std::vector<std::vector<uint8_t>> BuildSeeds() {
  using namespace mbe::snapshot;
  std::vector<FrontierSnapshot> snapshots;

  // Version-1 task words packed by hand (v:[32,64) shard:[16,32)
  // k:[0,16)). Whole subtrees are (v, 0, 1); earlier writers also stored
  // split-subtree shards (v, s, k > 1), which the codec still decodes.
  auto word = [](uint64_t v, uint64_t shard, uint64_t k) {
    return v << 32 | shard << 16 | k;
  };

  // Mid-run shard: pending tasks (split and unsplit) plus completed work.
  FrontierSnapshot mid;
  mid.algorithm = 1;
  mid.complete = false;
  mid.shard_index = 1;
  mid.shard_count = 4;
  mid.graph_left = 24;
  mid.graph_right = 24;
  mid.graph_edges = 230;
  mid.graph_hash = 0x1234'5678'9abc'def0ULL;
  mid.pending = {word(2, 0, 1), word(5, 1, 4), word(5, 3, 4)};
  mid.completed = {
      {word(0, 0, 1), {0x1111, 0x2222, 3}},
      {word(5, 2, 4), {0, 0, 0}},
  };
  snapshots.push_back(mid);

  // Drained single-process run.
  FrontierSnapshot done = mid;
  done.complete = true;
  done.shard_index = 0;
  done.shard_count = 1;
  done.pending.clear();
  snapshots.push_back(done);

  // Empty complete snapshot (empty graph / empty shard).
  FrontierSnapshot empty;
  empty.algorithm = 0;
  empty.complete = true;
  empty.shard_count = 1;
  snapshots.push_back(empty);

  std::vector<std::vector<uint8_t>> seeds;
  for (const FrontierSnapshot& snapshot : snapshots) {
    std::vector<uint8_t> bytes;
    if (!EncodeSnapshot(snapshot, &bytes).ok()) {
      std::fprintf(stderr, "seed snapshot failed to encode\n");
      __builtin_trap();
    }
    seeds.push_back(std::move(bytes));
  }
  seeds.push_back({});                        // empty input
  seeds.push_back({0x50, 0x4d, 0x42});        // truncated magic
  seeds.push_back({0x50, 0x4d, 0x42, 0x46, 0x7f, 0, 0, 0});  // version skew
  seeds.push_back({0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0});     // bad magic
  return seeds;
}

int ReplayFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') continue;
    if (int rc = ReplayFile(argv[i]); rc != 0) return rc;
    ++replayed;
  }
  if (replayed > 0) {
    std::printf("replayed %d corpus inputs, no crashes\n", replayed);
  }
  const std::vector<std::vector<uint8_t>> seeds = BuildSeeds();
  // Every pristine seed must survive (the trap in CheckRoundTrip enforces
  // canonical encoding on the happy path too).
  for (const auto& seed : seeds) {
    LLVMFuzzerTestOneInput(seed.data(), seed.size());
  }
  constexpr int kIterations = 50000;
  mbe::util::Rng rng(0x9e3779b97f4a7c15ULL);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<uint8_t> bytes = seeds[rng.Below(seeds.size())];
    const uint64_t mutations = 1 + rng.Below(8);
    for (uint64_t m = 0; m < mutations; ++m) {
      switch (rng.Below(4)) {
        case 0:  // insert
          bytes.insert(bytes.begin() + rng.Below(bytes.size() + 1),
                       static_cast<uint8_t>(rng.Below(256)));
          break;
        case 1:  // overwrite
          if (!bytes.empty()) {
            bytes[rng.Below(bytes.size())] =
                static_cast<uint8_t>(rng.Below(256));
          }
          break;
        case 2:  // truncate
          if (!bytes.empty()) {
            bytes.resize(rng.Below(bytes.size()));
          }
          break;
        default:  // delete one byte
          if (!bytes.empty()) {
            bytes.erase(bytes.begin() + rng.Below(bytes.size()));
          }
          break;
      }
    }
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  }
  std::printf("fuzzed %d mutated snapshots over %zu seeds, no crashes\n",
              kIterations, seeds.size());
  return 0;
}

#endif  // PMBE_FUZZ_STANDALONE
