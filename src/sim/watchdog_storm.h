#pragma once

/// The event pattern of hostbench `s3_stream`, replayable against any event
/// loop: tests/sim/queue_equivalence_test.cc runs it in lockstep with a
/// reference heap, and bench/sim_core measures the calendar queue's rebuild
/// cost on it.
///
/// `clients` closed-loop request streams share a 20 ms fabric-step grid. A
/// request arms a watchdog `timeout` out and schedules its first byte
/// 5-100 ms out, off the grid; its transfer then completes on the grid 10-35
/// steps later (one in `slow_one_in` takes 100 steps and outlives its
/// watchdog), cancelling the watchdog and issuing the client's next request.
/// So about 500 watchdogs are pending, about 20 are cancelled at each grid
/// instant, and each cancel is followed by an out-of-order arrival: the next
/// first byte, which sorts before the pending watchdogs. Between grid
/// instants the calendar drains and rebuilds again and again, each rebuild
/// moving a first byte or two in from the overflow list and freeing nothing,
/// since every cancelled watchdog was freed by the rebuild that sorted the
/// arrivals in. That is what `s3_stream` seed 1 does: 29,149 of its 32,178
/// rebuilds hold no cancelled event and no out-of-order arrival, the other
/// 3,029 follow the grid instants with a median of about 20 cancels and
/// 40 arrivals each.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace skyrise::sim {

struct WatchdogStormShape {
  int clients = 512;
  SimDuration grid = Millis(20);
  SimDuration timeout = Millis(1800);
  SimDuration first_byte_min = Millis(5);
  SimDuration first_byte_max = Millis(100);
  int64_t transfer_steps_min = 10;
  int64_t transfer_steps_max = 35;
  int64_t slow_one_in = 64;
  int64_t slow_steps = 100;
  /// At this grid instant an outage aborts `outage_clients` requests, which
  /// cancels their watchdogs at once and, with about 500 pending, purges
  /// the queue's overflow list; the clients retry `outage_steps` later.
  /// Negative: no outage.
  int outage_instant = -1;
  int outage_clients = 330;
  int outage_steps = 5;
};

/// Drives `Loop`, which provides `SimTime now()`, `Handle
/// Schedule(SimDuration delay)` for an event without effect, `void
/// Cancel(Handle)` and `void RunUntil(SimTime)`.
template <typename Loop>
class WatchdogStorm {
 public:
  using Handle = decltype(std::declval<Loop&>().Schedule(SimDuration{}));

  WatchdogStorm(Loop* loop, const WatchdogStormShape& shape, uint64_t seed)
      : loop_(loop),
        shape_(shape),
        rng_(seed),
        clients_(static_cast<size_t>(shape.clients)) {}

  /// One grid instant: the requests completing now cancel their watchdogs
  /// and issue the next ones, the next fabric step is scheduled, and the
  /// loop runs up to the next instant.
  void RunInstant() {
    const SimTime now = loop_->now();
    for (Client& c : clients_) {
      if (c.done != instant_) continue;
      if (c.armed) loop_->Cancel(c.watchdog);
      Issue(&c, now);
    }
    if (instant_ == shape_.outage_instant) {
      int aborted = 0;
      for (Client& c : clients_) {
        if (aborted == shape_.outage_clients) break;
        if (!c.armed || c.watchdog_due <= now) continue;
        loop_->Cancel(c.watchdog);
        c.armed = false;
        c.done = instant_ + shape_.outage_steps;
        ++aborted;
      }
    }
    loop_->Schedule(shape_.grid);
    ++instant_;
    loop_->RunUntil(now + shape_.grid);
  }

  /// Grid instants run so far.
  int64_t instants() const { return instant_; }

  /// Watchdogs armed and neither cancelled nor due yet.
  size_t pending_watchdogs() const {
    size_t pending = 0;
    for (const Client& c : clients_) {
      if (c.armed && c.watchdog_due > loop_->now()) ++pending;
    }
    return pending;
  }

 private:
  struct Client {
    Handle watchdog{};
    SimTime watchdog_due = 0;
    bool armed = false;
    int64_t done = 0;  ///< Grid instant its request completes.
  };

  void Issue(Client* c, SimTime now) {
    c->watchdog = loop_->Schedule(shape_.timeout);
    c->watchdog_due = now + shape_.timeout;
    c->armed = true;
    const SimDuration first_byte =
        rng_.UniformInt(shape_.first_byte_min, shape_.first_byte_max);
    loop_->Schedule(first_byte);
    const int64_t steps =
        rng_.UniformInt(1, shape_.slow_one_in) == 1
            ? shape_.slow_steps
            : rng_.UniformInt(shape_.transfer_steps_min,
                              shape_.transfer_steps_max);
    c->done = instant_ + (first_byte + shape_.grid - 1) / shape_.grid + steps;
  }

  Loop* loop_;
  WatchdogStormShape shape_;
  Rng rng_;
  std::vector<Client> clients_;
  int64_t instant_ = 0;
};

}  // namespace skyrise::sim
