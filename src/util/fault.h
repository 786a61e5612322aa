#ifndef PMBE_UTIL_FAULT_H_
#define PMBE_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/status.h"

/// \file
/// Deterministic fault injection (docs/ROBUSTNESS.md).
///
/// A *fault point* is a named site in the library where a resource failure
/// can plausibly happen: an arena growing, a bitmap or trie being built, a
/// sink buffer flushing, a worker picking up a task, a loader reading a
/// line. Sites test the point with the `PMBE_FAULT(name)` macro and, when
/// it fires, take their real failure path — the same one a genuine
/// allocation failure, stalled thread, or failing consumer would take. The
/// test matrix (scripts/check.sh fault leg, `pmbe_selfcheck --fault_sweep`
/// / `--chaos`) then proves that every such path ends in a typed
/// termination with a valid result prefix, never a crash.
///
/// The check is compiled in only under `-DPMBE_FAULT_INJECTION=ON`; in
/// regular builds `PMBE_FAULT(x)` is the constant `false` and the whole
/// framework costs nothing. In a fault build the disarmed fast path is one
/// relaxed atomic load.
///
/// Arming (fault builds only):
///  * programmatically — `FaultRegistry::Global().ArmCountdown("arena.grow",
///    3)` fires once, at the 3rd execution of that site;
///  * probabilistically — `ArmProbability(0.01, seed)` makes every site
///    fire independently with the given probability (deterministic in the
///    seed and hit order);
///  * per point probabilistically — `ArmPointProbability("net.reset", 0.05,
///    seed)` fires only that site, with its own deterministic stream;
///  * from the environment — `PMBE_FAULT_INJECT="arena.grow:3"` or
///    `PMBE_FAULT_INJECT="*:p=0.01:seed=7"`, read once at first use, so
///    any binary can run under a fault schedule without code changes.
///    Specs compose: `;`-joined clauses arm independently
///    (`"net.reset:p=0.05;net.delay:p=0.2:seed=3"`), and a `<prefix>.*`
///    wildcard arms every catalog point under the prefix
///    (`"net.*:p=0.1:seed=7"` arms the five network points and nothing
///    else — unlike `*`, which arms every site in the process).

namespace mbe::util {

/// Catalog of every fault point compiled into the library. Hand-maintained:
/// adding a `PMBE_FAULT("x")` site requires adding "x" here (fault_test
/// sweeps this list; docs/ROBUSTNESS.md documents each entry).
inline constexpr const char* kFaultPoints[] = {
    "arena.grow",    // EnumContext scratch-pool growth (all engines)
    "bitmap.build",  // adaptive bitmap materialization (MBET / VertexSet)
    "trie.build",    // prefix-tree construction at an enumeration node
    "sink.buffer",   // BufferedSink batch-arena growth
    "sink.flush",    // BufferedSink handing a batch downstream (throws)
    "worker.task",   // parallel worker starting a subtree (throws)
    "worker.stall",  // parallel worker pausing mid-pipeline (sleeps)
    "loader.line",   // graph_io reading one input line
    // Network path (src/serve/net.h faulting socket shim; client + server).
    "net.accept",         // server accept() fails transiently
    "net.read_stall",     // recv() stalls until the caller's deadline
    "net.write_truncate", // send() writes a short count then drops the peer
    "net.reset",          // connection reset (ECONNRESET) on read or write
    "net.delay",          // bounded latency injected before a socket op
};
inline constexpr size_t kNumFaultPoints =
    sizeof(kFaultPoints) / sizeof(kFaultPoints[0]);

/// Exception thrown by fault points that simulate a failing component
/// (sink.flush, worker.task). The containment layer converts it — like any
/// other exception escaping a worker or sink — into Termination::kInternal.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide fault-point registry. Thread-safe: sites may check from
/// any worker while a test arms/disarms from the main thread (arming
/// mid-run is racy by nature and fine — fault schedules are about
/// reachability, not exact interleavings).
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// True when any schedule is armed. One relaxed load; this is the whole
  /// cost of a disarmed fault build.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Site-side check: returns true when `point` should fail now. Counts
  /// hits and injections while armed.
  bool Check(const char* point);

  /// Fires `point` once, at its `nth` execution from now (nth >= 1).
  /// Replaces any previous schedule for the point.
  void ArmCountdown(const std::string& point, uint64_t nth);

  /// Every point fires independently with probability `p`, deterministic
  /// in `seed` and the per-point hit order.
  void ArmProbability(double p, uint64_t seed);

  /// Only `point` fires, independently with probability `p`, from its own
  /// deterministic stream (seeded by `seed` and the point's hit order).
  /// Replaces any previous per-point probability for the point; composes
  /// with countdowns and other points' schedules.
  void ArmPointProbability(const std::string& point, double p, uint64_t seed);

  /// Parses and applies a schedule spec. Grammar (clauses join with ';'):
  ///   <point>:<countdown>            fire once at the nth execution
  ///   <point>:p=<prob>[:seed=<s>]    per-point probability
  ///   <prefix>.*:p=<prob>[:seed=<s>] per-point probability for every
  ///                                  catalog point under the prefix
  ///   *:p=<prob>[:seed=<s>]          global probability, every site
  /// Unknown points (not in kFaultPoints) and prefixes matching nothing
  /// are InvalidArgument, so typos fail loudly.
  Status ArmSpec(const std::string& spec);

  /// Clears every schedule (hit/injection counters are kept).
  void Disarm();

  /// Faults injected since process start (across all points).
  uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Executions of `point` observed while the registry was armed. Lets a
  /// sweep size its countdown range: arm an unreachable countdown, run
  /// once, and read how often the site fired.
  uint64_t hits(const std::string& point) const;

  /// Clears the per-point hit counters (not the injection total).
  void ResetHits();

 private:
  FaultRegistry();

  struct PointState {
    uint64_t hits = 0;
    uint64_t countdown = 0;     ///< 0 = no countdown armed
    double probability = 0;     ///< 0 = no per-point probability armed
    uint64_t prob_seed = 0;
    uint64_t prob_counter = 0;  ///< per-point draw index (deterministic)
  };

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_{0};

  mutable std::mutex mu_;
  std::map<std::string, PointState> points_;
  double probability_ = 0;
  uint64_t prob_seed_ = 0;
  uint64_t prob_counter_ = 0;
};

}  // namespace mbe::util

#if defined(PMBE_FAULT_INJECTION)
#define PMBE_FAULT(point) (::mbe::util::FaultRegistry::Global().armed() && \
                           ::mbe::util::FaultRegistry::Global().Check(point))
#else
/// Fault injection compiled out: the branch folds away entirely.
#define PMBE_FAULT(point) false
#endif

#endif  // PMBE_UTIL_FAULT_H_
