#include "common/circuit_breaker.h"

namespace skyrise {

CircuitBreaker::CircuitBreaker(const Options& options) : opt_(options) {}

int CircuitBreaker::AddObserver(TransitionCallback callback) {
  const int handle = next_observer_handle_++;
  observers_[handle] = std::move(callback);
  return handle;
}

void CircuitBreaker::RemoveObserver(int handle) { observers_.erase(handle); }

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

double CircuitBreaker::FailureRate() const {
  if (window_.empty()) return 0;
  return static_cast<double>(window_failures_) /
         static_cast<double>(window_.size());
}

void CircuitBreaker::TransitionTo(State next, SimTime now) {
  if (next == state_) return;
  const State from = state_;
  state_ = next;
  switch (next) {
    case State::kOpen:
      ++stats_.opened;
      opened_at_ = now;
      break;
    case State::kHalfOpen:
      probes_in_flight_ = 0;
      probe_successes_ = 0;
      break;
    case State::kClosed:
      ++stats_.closed;
      window_.clear();
      window_failures_ = 0;
      break;
  }
  for (const auto& [handle, callback] : observers_) {
    if (callback) callback(from, next, now);
  }
}

bool CircuitBreaker::Allow(SimTime now) {
  if (state_ == State::kOpen) {
    if (now - opened_at_ < opt_.cooldown) {
      ++stats_.rejected;
      return false;
    }
    TransitionTo(State::kHalfOpen, now);
  }
  if (state_ == State::kHalfOpen) {
    if (probes_in_flight_ >= opt_.half_open_probes) {
      ++stats_.rejected;
      return false;
    }
    ++probes_in_flight_;
    return true;
  }
  return true;
}

void CircuitBreaker::RecordOutcome(bool failure, SimTime now) {
  window_.push_back(failure);
  if (failure) ++window_failures_;
  while (static_cast<int>(window_.size()) > opt_.window) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
  if (static_cast<int>(window_.size()) >= opt_.min_samples &&
      FailureRate() >= opt_.failure_threshold) {
    TransitionTo(State::kOpen, now);
  }
}

void CircuitBreaker::RecordSuccess(SimTime now) {
  ++stats_.successes;
  switch (state_) {
    case State::kClosed:
      RecordOutcome(/*failure=*/false, now);
      break;
    case State::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= opt_.half_open_probes) {
        TransitionTo(State::kClosed, now);
      }
      break;
    case State::kOpen:
      // Late result from before the trip; the cooldown clock decides.
      break;
  }
}

void CircuitBreaker::RecordFailure(SimTime now) {
  ++stats_.failures;
  switch (state_) {
    case State::kClosed:
      RecordOutcome(/*failure=*/true, now);
      break;
    case State::kHalfOpen:
      // A failed probe re-opens for another full cooldown.
      TransitionTo(State::kOpen, now);
      break;
    case State::kOpen:
      break;
  }
}

SimDuration CircuitBreaker::RetryAfter(SimTime now) const {
  if (state_ != State::kOpen) return 0;
  const SimTime reopen = opened_at_ + opt_.cooldown;
  return reopen > now ? reopen - now : 0;
}

}  // namespace skyrise
