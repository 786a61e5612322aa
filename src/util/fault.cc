#include "util/fault.h"

#include <cstdio>
#include <cstdlib>

#include "util/memory.h"

namespace mbe::util {

namespace {

bool IsKnownPoint(const std::string& name) {
  for (const char* p : kFaultPoints) {
    if (name == p) return true;
  }
  return false;
}

// Deterministic draw against probability `p`: draw index `n` from stream
// `seed`, shared by the global and per-point probability modes.
bool Draw(double p, uint64_t seed, uint64_t n);

// splitmix64: deterministic per-hit randomness for probability mode.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool Draw(double p, uint64_t seed, uint64_t n) {
  const uint64_t r = Mix(seed ^ Mix(n));
  return static_cast<double>(r >> 11) * 0x1.0p-53 < p;
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultRegistry::FaultRegistry() {
  // Environment arming: any binary (tools, tests, benches) can run under a
  // fault schedule without code changes. Errors are fatal — a typo'd spec
  // silently running faultless would defeat the test.
  const char* spec = std::getenv("PMBE_FAULT_INJECT");
  if (spec != nullptr && spec[0] != '\0') {
    const Status status = ArmSpec(spec);
    if (!status.ok()) {
      std::fprintf(stderr, "PMBE_FAULT_INJECT: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
}

bool FaultRegistry::Check(const char* point) {
  if (!armed()) return false;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PointState& st = points_[point];
    ++st.hits;
    if (st.countdown > 0 && --st.countdown == 0) fire = true;
    if (!fire && st.probability > 0) {
      fire = Draw(st.probability, st.prob_seed, st.prob_counter++);
    }
    if (!fire && probability_ > 0) {
      fire = Draw(probability_, prob_seed_, prob_counter_++);
    }
  }
  if (fire) CurrentMemoryBudget().NoteFault();
  return fire;
}

void FaultRegistry::ArmCountdown(const std::string& point, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  points_[point].countdown = nth;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::ArmProbability(double p, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  probability_ = p;
  prob_seed_ = seed;
  prob_counter_ = 0;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::ArmPointProbability(const std::string& point, double p,
                                        uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& st = points_[point];
  st.probability = p;
  st.prob_seed = seed;
  st.prob_counter = 0;
  armed_.store(true, std::memory_order_relaxed);
}

namespace {

// "p=<prob>[:seed=<s>]" → (p, seed). p out of (0, 1] is InvalidArgument.
Status ParseProbabilityFields(const std::string& rest, double* p,
                              uint64_t* seed) {
  *p = -1;
  *seed = 1;
  size_t pos = 0;
  while (pos < rest.size()) {
    size_t end = rest.find(':', pos);
    if (end == std::string::npos) end = rest.size();
    const std::string kv = rest.substr(pos, end - pos);
    if (kv.rfind("p=", 0) == 0) {
      *p = std::atof(kv.c_str() + 2);
    } else if (kv.rfind("seed=", 0) == 0) {
      *seed = std::strtoull(kv.c_str() + 5, nullptr, 10);
    } else {
      return Status::InvalidArgument("unknown fault spec field '" + kv + "'");
    }
    pos = end + 1;
  }
  if (!(*p > 0 && *p <= 1)) {
    return Status::InvalidArgument(
        "probability spec needs p in (0, 1] (got '" + rest + "')");
  }
  return Status::Ok();
}

}  // namespace

Status FaultRegistry::ArmSpec(const std::string& spec) {
  // Clauses join with ';' and arm independently, so one env var can
  // schedule several points ("net.reset:p=0.05;net.delay:p=0.2").
  size_t clause_start = 0;
  while (clause_start <= spec.size()) {
    size_t clause_end = spec.find(';', clause_start);
    if (clause_end == std::string::npos) clause_end = spec.size();
    const std::string clause =
        spec.substr(clause_start, clause_end - clause_start);
    clause_start = clause_end + 1;
    if (clause.empty()) continue;

    const size_t colon = clause.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= clause.size()) {
      return Status::InvalidArgument(
          "fault spec clause must be '<point>:<countdown>', "
          "'<point>:p=<prob>[:seed=<s>]', or '*:p=<prob>[:seed=<s>]' "
          "(got '" + clause + "')");
    }
    const std::string point = clause.substr(0, colon);
    const std::string rest = clause.substr(colon + 1);

    if (point == "*") {
      double p;
      uint64_t seed;
      PMBE_RETURN_IF_ERROR(ParseProbabilityFields(rest, &p, &seed));
      ArmProbability(p, seed);
      continue;
    }

    // "<prefix>.*" arms every catalog point under the prefix — probability
    // mode only (a shared countdown across several sites is ambiguous).
    if (point.size() > 2 && point.compare(point.size() - 2, 2, ".*") == 0) {
      const std::string prefix = point.substr(0, point.size() - 1);
      if (rest.rfind("p=", 0) != 0) {
        return Status::InvalidArgument(
            "wildcard '" + point + "' needs a probability spec "
            "('" + point + ":p=<prob>[:seed=<s>]')");
      }
      double p;
      uint64_t seed;
      PMBE_RETURN_IF_ERROR(ParseProbabilityFields(rest, &p, &seed));
      size_t matched = 0;
      for (const char* cat : kFaultPoints) {
        if (std::string(cat).rfind(prefix, 0) == 0) {
          // Offset the seed per point so sites draw independent streams.
          ArmPointProbability(cat, p, seed + matched);
          ++matched;
        }
      }
      if (matched == 0) {
        return Status::InvalidArgument("wildcard '" + point +
                                       "' matches no fault point "
                                       "(see util/fault.h kFaultPoints)");
      }
      continue;
    }

    if (!IsKnownPoint(point)) {
      return Status::InvalidArgument("unknown fault point '" + point +
                                     "' (see util/fault.h kFaultPoints)");
    }
    if (rest.rfind("p=", 0) == 0) {
      double p;
      uint64_t seed;
      PMBE_RETURN_IF_ERROR(ParseProbabilityFields(rest, &p, &seed));
      ArmPointProbability(point, p, seed);
      continue;
    }
    char* end = nullptr;
    const uint64_t nth = std::strtoull(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != '\0' || nth == 0) {
      return Status::InvalidArgument("countdown must be a positive integer "
                                     "(got '" + rest + "')");
    }
    ArmCountdown(point, nth);
  }
  return Status::Ok();
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, st] : points_) {
    st.countdown = 0;
    st.probability = 0;
  }
  probability_ = 0;
  armed_.store(false, std::memory_order_relaxed);
}

uint64_t FaultRegistry::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

void FaultRegistry::ResetHits() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, st] : points_) st.hits = 0;
}

}  // namespace mbe::util
