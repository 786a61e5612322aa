#include "serve/admission.h"

#include <utility>

namespace mbe::serve {

void AdmissionController::Admit(Start start) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      ticket.reason = RejectReason::kDraining;
    } else if (active_ < max_active_ && queue_.empty()) {
      ++active_;
      ticket.admitted = true;
    } else if (queue_.size() < max_queued_) {
      queue_.push_back(
          Pending{std::move(start), std::chrono::steady_clock::now()});
      return;
    }
  }
  start(ticket);
}

void AdmissionController::Release() {
  Pending next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      if (active_ > 0) --active_;
      return;
    }
    // The slot passes to the head waiter; active_ stays as it is.
    next = std::move(queue_.front());
    queue_.pop_front();
  }
  next.start(Ticket{
      .admitted = true,
      .queue_wait_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - next.enqueued)
              .count())});
}

void AdmissionController::StartDraining() {
  std::deque<Pending> rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    rejected.swap(queue_);
  }
  for (Pending& pending : rejected) {
    pending.start(
        Ticket{.admitted = false, .reason = RejectReason::kDraining});
  }
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

size_t AdmissionController::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace mbe::serve
