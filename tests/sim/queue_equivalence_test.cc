#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/environment.h"
#include "sim/watchdog_storm.h"

namespace skyrise::sim {
namespace {

// Reference event loop: a plain binary heap ordered by (time, sequence) plus
// a tombstone set for cancellations. This mirrors the seed implementation the
// calendar queue replaced, and it pins the exact FireNext contract:
//   - the time bound is checked BEFORE the cancelled flag, so a cancelled
//     event past the limit still stops the loop without being dropped;
//   - dropping a cancelled head does not advance the clock;
//   - RunUntil always leaves the clock at `until`.
class ReferenceLoop {
 public:
  struct Entry {
    SimTime time;
    uint64_t seq;
    int tag;
    bool operator>(const Entry& other) const {
      if (time != other.time) return other.time < time;
      return other.seq < seq;
    }
  };

  uint64_t Schedule(SimTime when, int tag) {
    const uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq, tag});
    return seq;
  }

  void Cancel(uint64_t seq) { cancelled_.insert(seq); }

  bool FireNext(SimTime limit, std::vector<int>* log) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if (top.time > limit) return false;
      heap_.pop();
      if (cancelled_.count(top.seq) != 0) continue;
      now_ = top.time;
      log->push_back(top.tag);
      return true;
    }
    return false;
  }

  void Step(std::vector<int>* log) {
    FireNext(std::numeric_limits<SimTime>::max(), log);
  }

  void Run(std::vector<int>* log) {
    while (FireNext(std::numeric_limits<SimTime>::max(), log)) {
    }
  }

  void RunUntil(SimTime until, std::vector<int>* log) {
    while (FireNext(until, log)) {
    }
    now_ = until;
  }

  SimTime now() const { return now_; }

 private:
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::set<uint64_t> cancelled_;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

// SimEnvironment and ReferenceLoop driven in lockstep: every op is applied
// to both, and each fired event appends its tag to its loop's log.
class Lockstep {
 public:
  explicit Lockstep(uint64_t seed) : env_(seed) {}

  // Schedules on both loops; returns a handle for Cancel.
  size_t Schedule(SimTime delay) {
    const int tag = next_tag_++;
    env_ids_.push_back(
        env_.Schedule(delay, [this, tag] { env_log_.push_back(tag); }));
    ref_ids_.push_back(ref_.Schedule(env_.now() + delay, tag));
    return env_ids_.size() - 1;
  }

  void Cancel(size_t handle) {
    env_.Cancel(env_ids_[handle]);
    ref_.Cancel(ref_ids_[handle]);
  }

  void Step() {
    env_.Step();
    ref_.Step(&ref_log_);
  }

  void RunUntil(SimTime until) {
    env_.RunUntil(until);
    ref_.RunUntil(until, &ref_log_);
  }

  SimTime now() const { return env_.now(); }

  // Drains both loops and compares everything that fired.
  void Finish() {
    env_.Run();
    ref_.Run(&ref_log_);
    EXPECT_EQ(env_log_, ref_log_);
    EXPECT_EQ(env_.now(), ref_.now());
    EXPECT_TRUE(env_.empty());
  }

  SimEnvironment& env() { return env_; }
  const ReferenceLoop& ref() const { return ref_; }
  size_t issued() const { return env_ids_.size(); }

  // FNV-1a over every EventId issued so far. An id carries its slot index
  // and generation, so this pins the order in which slots were freed and
  // reused, which the firing log cannot see.
  uint64_t IdDigest() const {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (EventId id : env_ids_) {
      hash ^= id;
      hash *= 0x100000001b3ull;
    }
    return hash;
  }

 private:
  SimEnvironment env_;
  ReferenceLoop ref_;
  std::vector<int> env_log_;
  std::vector<int> ref_log_;
  std::vector<EventId> env_ids_;
  std::vector<uint64_t> ref_ids_;
  int next_tag_ = 0;
};

// Drives both loops from one shared random op stream and asserts identical
// firing logs and clocks. Exercises ties (delay 0), stale cancels of
// already-fired events, and RunUntil boundaries.
void RunLockstepStorm(uint64_t seed, int ops) {
  Lockstep loops(seed);
  Rng rng(seed * 2654435761u + 1);

  for (int op = 0; op < ops; ++op) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
      case 1:
      case 2:  // Schedule; delay 0 produces same-instant ties.
        loops.Schedule(rng.UniformInt(0, 2000));
        break;
      case 3:  // Cancel any id ever issued, fired or not.
        if (loops.issued() == 0) break;
        loops.Cancel(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(loops.issued()) - 1)));
        break;
      case 4:  // Single step.
        loops.Step();
        break;
      case 5:  // Bounded drain.
        loops.RunUntil(loops.env().now() + rng.UniformInt(0, 3000));
        break;
    }
    ASSERT_EQ(loops.env().now(), loops.ref().now())
        << "clock diverged at op " << op;
  }
  loops.Finish();
}

// Pool counters after a given op of a storm. cancelled_dropped is part of
// the simulated-output digests, and the rebuild moments and sizes decide
// which cancelled events are purged when, so these pin more than the log.
struct Checkpoint {
  int op;
  uint64_t fired;
  uint64_t cancelled_dropped;
  uint64_t calendar_resizes;
  uint64_t bucket_count;
};

// The fabric-stepped storage workloads' event shape: every event sits on a
// 20 ms grid, so the median inter-event gap is 0 and each rebuild picks the
// 1 us width floor, and each operation arms a ~2 s watchdog that is usually
// cancelled. The calendar then drains into the overflow list at nearly
// every grid instant: a rebuild storm.
void RunQuantisedStorm(uint64_t seed, int ops,
                       const std::vector<Checkpoint>& checkpoints) {
  constexpr SimTime kGrid = Millis(20);
  Lockstep loops(seed);
  Rng rng(seed * 2654435761u + 1);
  std::vector<size_t> watchdogs;  // Armed and not cancelled by the stream.
  size_t next_checkpoint = 0;

  for (int op = 0; op < ops; ++op) {
    const SimTime now = loops.env().now();
    const SimTime on_grid = (now + kGrid - 1) / kGrid * kGrid;
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:  // A burst of operations: grid events and their watchdogs.
        for (int64_t k = rng.UniformInt(1, 8); k > 0; --k) {
          loops.Schedule(on_grid - now + rng.UniformInt(0, 3) * kGrid);
          watchdogs.push_back(loops.Schedule(on_grid - now + Seconds(2)));
        }
        break;
      case 3:
      case 4:
      case 5:
      case 6:  // Operations finished: cancel their watchdogs, keeping
               // about 100 pending.
        for (int64_t k = rng.UniformInt(1, 8);
             k > 0 && watchdogs.size() > 100; --k) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(watchdogs.size()) - 1));
          loops.Cancel(watchdogs[pick]);
          watchdogs[pick] = watchdogs.back();
          watchdogs.pop_back();
        }
        break;
      case 7:  // Cancel any id ever issued, fired or not.
        if (loops.issued() == 0) break;
        loops.Cancel(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(loops.issued()) - 1)));
        break;
      case 8:
        loops.Step();
        break;
      case 9:
        loops.RunUntil(now + rng.UniformInt(0, 100) * Millis(1));
        break;
    }
    ASSERT_EQ(loops.env().now(), loops.ref().now())
        << "clock diverged at op " << op;
    if (next_checkpoint < checkpoints.size() &&
        checkpoints[next_checkpoint].op == op) {
      const Checkpoint& want = checkpoints[next_checkpoint++];
      const EventPoolStats stats = loops.env().pool_stats();
      EXPECT_EQ(stats.fired, want.fired) << "at op " << op;
      EXPECT_EQ(stats.cancelled_dropped, want.cancelled_dropped)
          << "at op " << op;
      EXPECT_EQ(stats.calendar_resizes, want.calendar_resizes)
          << "at op " << op;
      EXPECT_EQ(stats.bucket_count, want.bucket_count) << "at op " << op;
    }
  }
  EXPECT_EQ(next_checkpoint, checkpoints.size());
  loops.Finish();
}

// Counters and the id digest at the end of a grid instant of a watchdog
// storm.
struct StormCheckpoint {
  int instant;
  uint64_t fired;
  uint64_t cancelled_dropped;
  uint64_t calendar_resizes;
  uint64_t bucket_count;
  uint64_t id_digest;
};

// hostbench `s3_stream`'s event pattern (sim/watchdog_storm.h): about 500
// pending watchdogs, about 20 cancelled per 20 ms grid instant, each cancel
// followed by an out-of-order first byte, and between the instants rebuilds
// that only move a first byte or two into the calendar. At `outage_instant`
// 330 watchdogs are cancelled at once, which purges the overflow list.
void RunWatchdogStorm(uint64_t seed, int instants, int outage_instant,
                      const std::vector<StormCheckpoint>& checkpoints) {
  WatchdogStormShape shape;
  shape.outage_instant = outage_instant;
  Lockstep loops(seed);
  WatchdogStorm<Lockstep> storm(&loops, shape, seed);
  size_t next_checkpoint = 0;
  uint64_t dropped_before = 0;
  for (int instant = 0; instant < instants; ++instant) {
    storm.RunInstant();
    const EventPoolStats stats = loops.env().pool_stats();
    if (instant == outage_instant) {
      EXPECT_GE(stats.cancelled_dropped - dropped_before, 250u)
          << "the outage did not purge the overflow list";
    }
    dropped_before = stats.cancelled_dropped;
    if (next_checkpoint < checkpoints.size() &&
        checkpoints[next_checkpoint].instant == instant) {
      const StormCheckpoint& want = checkpoints[next_checkpoint++];
      EXPECT_EQ(stats.fired, want.fired) << "at instant " << instant;
      EXPECT_EQ(stats.cancelled_dropped, want.cancelled_dropped)
          << "at instant " << instant;
      EXPECT_EQ(stats.calendar_resizes, want.calendar_resizes)
          << "at instant " << instant;
      EXPECT_EQ(stats.bucket_count, want.bucket_count)
          << "at instant " << instant;
      EXPECT_EQ(loops.IdDigest(), want.id_digest) << "at instant " << instant;
      if (instant != outage_instant) {
        EXPECT_GE(storm.pending_watchdogs(), 500u) << "at instant " << instant;
      }
    }
  }
  EXPECT_EQ(next_checkpoint, checkpoints.size());
  loops.Finish();
}

TEST(QueueEquivalenceTest, MatchesReferenceHeapSeed1) {
  RunLockstepStorm(/*seed=*/1, /*ops=*/20000);
}

TEST(QueueEquivalenceTest, MatchesReferenceHeapSeed42) {
  RunLockstepStorm(/*seed=*/42, /*ops=*/20000);
}

TEST(QueueEquivalenceTest, MatchesReferenceHeapSeed2026) {
  RunLockstepStorm(/*seed=*/2026, /*ops=*/20000);
}

TEST(QueueEquivalenceTest, MatchesReferenceOnQuantisedTimes) {
  // Counters recorded from the sort-everything rebuild this queue had
  // before rebuilds merged the overflow's sorted run.
  RunQuantisedStorm(/*seed=*/1, /*ops=*/20000,
                    {{4999, 7153, 5804, 586, 128},
                     {9999, 14393, 11989, 1184, 128},
                     {14999, 21748, 18376, 1774, 128},
                     {19999, 29054, 24829, 2319, 128}});
}

TEST(QueueEquivalenceTest, MatchesReferenceInWatchdogStorm) {
  // Recorded from the queue whose rebuilds walked the whole overflow list of
  // slot indices.
  RunWatchdogStorm(/*seed=*/1, /*instants=*/1000, /*outage_instant=*/600,
                   {{199, 4323, 3606, 1106, 1024, 17883034480272075955ull},
                    {399, 8379, 7342, 3104, 1024, 8941561992468910168ull},
                    {599, 12474, 11116, 5101, 1024, 583072640069339715ull},
                    {600, 12492, 11464, 5102, 256, 15193013306820209358ull},
                    {799, 16718, 15075, 6908, 1024, 13666749829845404590ull},
                    {999, 20780, 18838, 8872, 1024, 7776201026584226076ull}});
}

TEST(QueueEquivalenceTest, MatchesReferenceUnderCancelHeavyLoad) {
  // Bias toward cancels by issuing a dedicated storm: schedule bursts of
  // far-future timeouts, cancel almost all of them, then drain.
  SimEnvironment env(7);
  ReferenceLoop ref;
  Rng rng(7777);

  std::vector<int> env_log;
  std::vector<int> ref_log;
  int next_tag = 0;

  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> env_ids;
    std::vector<uint64_t> ref_ids;
    for (int i = 0; i < 200; ++i) {
      const SimTime delay = 1 + rng.UniformInt(0, 100);
      const SimTime timeout = Seconds(30) + rng.UniformInt(0, 1000);
      const int tag = next_tag++;
      env.Schedule(delay, [&env_log, tag] { env_log.push_back(tag); });
      ref.Schedule(env.now() + delay, tag);
      const int ttag = next_tag++;
      env_ids.push_back(
          env.Schedule(timeout, [&env_log, ttag] { env_log.push_back(ttag); }));
      ref_ids.push_back(ref.Schedule(env.now() + timeout, ttag));
    }
    // Cancel all but one timeout per round; the survivor fires much later.
    const size_t keep =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(env_ids.size()) - 1));
    for (size_t i = 0; i < env_ids.size(); ++i) {
      if (i == keep) continue;
      env.Cancel(env_ids[i]);
      ref.Cancel(ref_ids[i]);
    }
    const SimTime until = env.now() + rng.UniformInt(200, 2000);
    env.RunUntil(until);
    ref.RunUntil(until, &ref_log);
    ASSERT_EQ(env.now(), ref.now()) << "clock diverged at round " << round;
  }

  env.Run();
  ref.Run(&ref_log);
  EXPECT_EQ(env_log, ref_log);
  EXPECT_EQ(env.now(), ref.now());
}

}  // namespace
}  // namespace skyrise::sim
