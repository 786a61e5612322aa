#ifndef PMBE_SERVE_ADMISSION_H_
#define PMBE_SERVE_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "serve/wire.h"

/// \file
/// `serve::AdmissionController` — bounds how many sessions run at once.
///
/// Up to `max_active` sessions hold a slot; up to `max_queued` more wait as
/// pending starts in strict FIFO order (a released slot always goes to the
/// longest waiter, never to a lucky newcomer). Anything beyond that is
/// rejected immediately with a typed reason — the caller turns it into a
/// kRejected wire frame instead of letting latency pile up invisibly.
/// `StartDraining` flips the controller into shutdown mode: every queued
/// start is rejected with kDraining and so are new arrivals, while already
/// admitted sessions keep their slots until they Release.
///
/// Nothing here blocks: a queued start is a stored callback, not a waiting
/// thread. Each start runs exactly once, outside the controller's mutex, on
/// whichever thread decided its outcome — the Admit caller when it is
/// admitted or rejected at once, the Release caller when a freed slot
/// passes to it, the StartDraining caller when the drain rejects it.

namespace mbe::serve {

class AdmissionController {
 public:
  AdmissionController(size_t max_active, size_t max_queued)
      : max_active_(max_active), max_queued_(max_queued) {}

  /// Outcome of one admission attempt.
  struct Ticket {
    bool admitted = false;
    /// Meaningful when !admitted.
    RejectReason reason = RejectReason::kTooManySessions;
    /// Time spent queued before the slot was granted (0 on immediate
    /// admission and on rejection).
    uint64_t queue_wait_ns = 0;
  };

  /// Receives the outcome. An admitted start owns one slot until it calls
  /// Release().
  using Start = std::function<void(const Ticket&)>;

  /// Runs `start` now when a slot is free and nobody waits (admitted) or
  /// when the queue is full or the controller is draining (rejected);
  /// otherwise queues it behind the earlier waiters.
  void Admit(Start start);

  /// Returns a slot. The head of the queue, if any, takes it over and its
  /// start runs on the calling thread.
  void Release();

  /// Rejects all queued and future starts with kDraining. Active sessions
  /// are unaffected.
  void StartDraining();

  bool draining() const;
  size_t active() const;
  size_t queued() const;

 private:
  struct Pending {
    Start start;
    std::chrono::steady_clock::time_point enqueued;
  };

  const size_t max_active_;
  const size_t max_queued_;

  mutable std::mutex mu_;
  size_t active_ = 0;
  /// Non-empty only while every slot is taken: Release hands a freed slot
  /// straight to the head instead of returning it.
  std::deque<Pending> queue_;
  bool draining_ = false;
};

}  // namespace mbe::serve

#endif  // PMBE_SERVE_ADMISSION_H_
