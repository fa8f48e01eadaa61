#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/units.h"

/// \file circuit_breaker.h
/// Deterministic per-service circuit breaker (closed -> open -> half-open)
/// for the storage and invoke paths. Outcomes feed a rolling window; when
/// the window's failure rate crosses the threshold the breaker opens and
/// sheds requests for a cooldown, after which a limited number of half-open
/// probes decide between closing again and re-opening. A pure state machine
/// over explicit `SimTime` arguments: no clock, no RNG, no dependency on
/// sim/ or obs/ — callers (which all live above common/) pass `env->now()`
/// in and observe transitions through observers, so the same fault
/// sequence produces the same transition trace on every run.

namespace skyrise {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    /// Diagnostic name ("storage", "invoke"); surfaces in obs markers and
    /// shed-error messages.
    std::string name = "breaker";
    /// Rolling outcome window the failure rate is computed over.
    int window = 20;
    /// Outcomes required in the window before the breaker may trip (a
    /// single early failure is not a 100% failure rate worth tripping on).
    int min_samples = 10;
    /// Failure fraction at or above which the breaker opens.
    double failure_threshold = 0.5;
    /// How long an open breaker sheds before allowing half-open probes.
    SimDuration cooldown = Seconds(5);
    /// Consecutive successful probes required to close from half-open; any
    /// probe failure re-opens for another cooldown.
    int half_open_probes = 3;
  };

  struct Stats {
    int64_t opened = 0;      ///< Transitions into kOpen.
    int64_t closed = 0;      ///< Transitions into kClosed (recoveries).
    int64_t rejected = 0;    ///< Allow() == false decisions.
    int64_t successes = 0;
    int64_t failures = 0;
  };

  using TransitionCallback =
      std::function<void(State from, State to, SimTime now)>;

  CircuitBreaker() : CircuitBreaker(Options()) {}
  explicit CircuitBreaker(const Options& options);

  /// May a request proceed at `now`? Open breakers reject until the
  /// cooldown elapses (then transition to half-open); half-open breakers
  /// admit at most `half_open_probes` concurrent probes.
  [[nodiscard]] bool Allow(SimTime now);

  void RecordSuccess(SimTime now);
  void RecordFailure(SimTime now);

  /// Wait suggested to shed callers: time until the cooldown admits probes
  /// again (0 when not open).
  SimDuration RetryAfter(SimTime now) const;

  State state() const { return state_; }
  double FailureRate() const;
  const Options& options() const { return opt_; }
  const Stats& stats() const { return stats_; }

  /// Registers an observer for state transitions (obs instants/metrics live
  /// above this layer). Multiple observers may be attached at once — each
  /// in-flight query registers its own — and fire in registration order.
  /// Returns a handle for RemoveObserver.
  int AddObserver(TransitionCallback callback);
  void RemoveObserver(int handle);

  /// True when `handle` is the oldest live observer. Lets N per-query
  /// observers on a shared breaker elect exactly one emitter for
  /// per-transition counters that must not be multiplied by the in-flight
  /// query count.
  bool IsOldestObserver(int handle) const {
    return !observers_.empty() && observers_.begin()->first == handle;
  }

  static const char* StateName(State state);

 private:
  void TransitionTo(State next, SimTime now);
  void RecordOutcome(bool ok, SimTime now);

  Options opt_;
  State state_ = State::kClosed;
  std::deque<bool> window_;   ///< Rolling outcomes; true = failure.
  int window_failures_ = 0;
  SimTime opened_at_ = 0;
  int probes_in_flight_ = 0;
  int probe_successes_ = 0;
  Stats stats_;
  /// Observers keyed by handle; std::map so firing order is deterministic
  /// (registration order, since handles increase monotonically from 1).
  std::map<int, TransitionCallback> observers_;
  int next_observer_handle_ = 1;
};

}  // namespace skyrise
