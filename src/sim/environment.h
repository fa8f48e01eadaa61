#pragma once

#include <cstdint>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "common/units.h"
#include "sim/event_queue.h"

/// \file environment.h
/// Discrete-event simulation kernel. All serverless services (network, FaaS
/// platform, storage) schedule their state transitions on one shared
/// `SimEnvironment`, which owns the virtual clock and the event queue.
///
/// Determinism: ties in event time are broken by insertion sequence number,
/// and randomness comes from per-entity `Rng` streams forked off the
/// environment seed, so a run is a pure function of (seed, configuration).
///
/// The queue is a pooled calendar queue (see event_queue.h): scheduling in
/// steady state performs zero heap allocations for callbacks that fit the
/// 48-byte inline buffer, and cancellation is an O(1) generation check
/// instead of a tombstone-set insert.

namespace skyrise::sim {

class SimEnvironment {
 public:
  explicit SimEnvironment(uint64_t seed = 42);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(SimEnvironment);

  SimTime now() const { return now_; }
  uint64_t seed() const { return seed_; }

  /// Schedules `fn` to run `delay` microseconds from now. Returns an id that
  /// can be passed to Cancel(). Accepts any void() callable; small captures
  /// are stored inline in the event slot (no heap allocation).
  template <typename F>
  EventId Schedule(SimDuration delay, F&& fn) {
    SKYRISE_CHECK(delay >= 0);
    return ScheduleImpl(now_ + delay, EventCallback(std::forward<F>(fn)));
  }

  /// Schedules at an absolute virtual time (>= now).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    return ScheduleImpl(when, EventCallback(std::forward<F>(fn)));
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled
  /// (stale ids are rejected by the slot generation, so this never leaks).
  void Cancel(EventId id);

  /// Runs until the event queue drains. Returns the final virtual time.
  SimTime Run();

  /// Runs all events with time <= `until`, then sets now to `until`.
  void RunUntil(SimTime until);

  /// Executes the single next event. Returns false when the queue is empty.
  bool Step();

  bool empty() const { return queue_.size() == 0; }
  int64_t events_processed() const { return events_processed_; }

  /// Forks a deterministic RNG stream for an entity.
  Rng ForkRng(uint64_t stream_id) const { return root_rng_.Fork(stream_id); }

  /// Event pool / calendar counters for bench/sim_core and tests.
  EventPoolStats pool_stats() const { return queue_.stats(); }

 private:
  EventId ScheduleImpl(SimTime when, EventCallback callback);

  /// Fires the next live event if its time is <= `limit`, freeing lazily
  /// cancelled events encountered at the head along the way. Returns false
  /// when the queue is empty or the head lies beyond `limit` (the time bound
  /// is checked before the cancelled flag, matching the seed's RunUntil).
  /// This is the single copy of the skip logic Step and RunUntil share.
  bool FireNext(SimTime limit);

  uint64_t seed_;
  Rng root_rng_;
  SimTime now_ = 0;
  int64_t events_processed_ = 0;
  CalendarEventQueue queue_;
};

}  // namespace skyrise::sim
