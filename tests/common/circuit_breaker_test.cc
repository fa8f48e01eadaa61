#include "common/circuit_breaker.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace skyrise {
namespace {

CircuitBreaker::Options SmallBreaker() {
  CircuitBreaker::Options opt;
  opt.name = "test";
  opt.window = 8;
  opt.min_samples = 4;
  opt.failure_threshold = 0.5;
  opt.cooldown = Seconds(5);
  opt.half_open_probes = 2;
  return opt;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  CircuitBreaker breaker(SmallBreaker());
  // Three straight failures are a 100% failure rate but too few samples to
  // trip on.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow(i));
    breaker.RecordFailure(i);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opened, 0);
}

TEST(CircuitBreakerTest, TripsAtFailureThreshold) {
  CircuitBreaker breaker(SmallBreaker());
  breaker.RecordSuccess(1);
  breaker.RecordSuccess(2);
  breaker.RecordFailure(3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(4);  // 2/4 failures >= 0.5: trips.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opened, 1);

  EXPECT_FALSE(breaker.Allow(5));
  EXPECT_EQ(breaker.stats().rejected, 1);
  EXPECT_EQ(breaker.RetryAfter(5), Seconds(5) - 1);
}

TEST(CircuitBreakerTest, RollingWindowEvictsOldOutcomes) {
  CircuitBreaker breaker(SmallBreaker());
  // One early failure, then a long healthy run: the failure ages out of
  // the 8-outcome window and the rate returns to zero.
  breaker.RecordFailure(0);
  for (int i = 1; i < 12; ++i) breaker.RecordSuccess(i);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.FailureRate(), 0.0);
}

TEST(CircuitBreakerTest, CooldownAdmitsLimitedHalfOpenProbes) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(i);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Rejected until the cooldown elapses (opened at t=3).
  EXPECT_FALSE(breaker.Allow(3 + Seconds(5) - 1));
  const SimTime probe_time = 3 + Seconds(5);
  EXPECT_TRUE(breaker.Allow(probe_time));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Only half_open_probes probes may be in flight at once.
  EXPECT_TRUE(breaker.Allow(probe_time));
  EXPECT_FALSE(breaker.Allow(probe_time));
}

TEST(CircuitBreakerTest, SuccessfulProbesCloseFailedProbeReopens) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(i);
  const SimTime probe_time = 3 + Seconds(5);

  // Recovery path: enough consecutive probe successes close the breaker.
  ASSERT_TRUE(breaker.Allow(probe_time));
  breaker.RecordSuccess(probe_time + 1);
  ASSERT_TRUE(breaker.Allow(probe_time + 2));
  breaker.RecordSuccess(probe_time + 3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().closed, 1);
  // Closing clears the window: the old fault storm is forgotten.
  EXPECT_EQ(breaker.FailureRate(), 0.0);

  // Trip again, then fail a probe: straight back to open for a full
  // cooldown, measured from the probe failure.
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(100 + i);
  const SimTime reprobe = 103 + Seconds(5);
  ASSERT_TRUE(breaker.Allow(reprobe));
  breaker.RecordFailure(reprobe + 1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opened, 3);
  EXPECT_FALSE(breaker.Allow(reprobe + 2));
  EXPECT_EQ(breaker.RetryAfter(reprobe + 1), Seconds(5));
}

TEST(CircuitBreakerTest, TransitionTraceIsDeterministic) {
  // The same outcome sequence produces the same transition trace on every
  // run — the property the chaos harness and obs markers rely on.
  auto run_once = []() {
    CircuitBreaker breaker(SmallBreaker());
    std::vector<std::string> trace;
    breaker.AddObserver([&trace](CircuitBreaker::State from,
                                 CircuitBreaker::State to, SimTime now) {
      trace.push_back(StrFormat("%s->%s@%lld", CircuitBreaker::StateName(from),
                                CircuitBreaker::StateName(to),
                                static_cast<long long>(now)));
    });
    for (int i = 0; i < 4; ++i) breaker.RecordFailure(i);
    const SimTime probe_time = 3 + Seconds(5);
    (void)breaker.Allow(probe_time);
    breaker.RecordSuccess(probe_time + 1);
    (void)breaker.Allow(probe_time + 2);
    breaker.RecordSuccess(probe_time + 3);
    return trace;
  };

  const std::vector<std::string> first = run_once();
  const std::vector<std::string> second = run_once();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], "closed->open@3");
  EXPECT_EQ(first[1], StrFormat("open->half_open@%lld",
                                static_cast<long long>(3 + Seconds(5))));
  EXPECT_EQ(first[2], StrFormat("half_open->closed@%lld",
                                static_cast<long long>(3 + Seconds(5) + 3)));
  EXPECT_EQ(first, second);
}

TEST(CircuitBreakerTest, DetachedObserverIsSafe) {
  CircuitBreaker breaker(SmallBreaker());
  int transitions = 0;
  const int handle = breaker.AddObserver(
      [&transitions](CircuitBreaker::State, CircuitBreaker::State, SimTime) {
        ++transitions;
      });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(i);
  EXPECT_EQ(transitions, 1);
  breaker.RemoveObserver(handle);
  (void)breaker.Allow(3 + Seconds(5));  // open -> half_open, unobserved
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(transitions, 1);
}

}  // namespace
}  // namespace skyrise
