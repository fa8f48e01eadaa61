#include "storage/retry_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/object_store.h"

namespace skyrise::storage {
namespace {

class RetryClientTest : public ::testing::Test {
 protected:
  sim::SimEnvironment env_{7};
};

RetryClient::Options FastOptions() {
  RetryClient::Options o;
  o.request_timeout = Millis(200);
  o.max_attempts = 8;
  return o;
}

TEST_F(RetryClientTest, SuccessPassesThrough) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  RetryClient client(&env_, &s3, FastOptions());
  std::string got;
  client.Get("k", {}, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    got = r->data();
  });
  env_.Run();
  EXPECT_EQ(got, "v");
  EXPECT_EQ(client.stats().successes, 1);
  EXPECT_EQ(client.stats().attempts, 1);
}

TEST_F(RetryClientTest, RetriesThrottlesUntilSuccess) {
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 1;        // Tiny burst: first volley throttles.
  opt.partition_read_iops = 1000;   // Refills during backoff.
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient client(&env_, &s3, FastOptions());
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    client.Get("k", {}, [&](Result<Blob> r) { ok += r.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_EQ(ok, 20);  // All eventually succeed via retries.
  EXPECT_GT(client.stats().throttles, 0);
  EXPECT_GT(client.stats().attempts, 20);
}

TEST_F(RetryClientTest, NotFoundIsNotRetried) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  RetryClient client(&env_, &s3, FastOptions());
  Status status;
  client.Get("missing", {}, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(client.stats().attempts, 1);
  EXPECT_EQ(client.stats().permanent_failures, 1);
}

TEST_F(RetryClientTest, TimeoutTriggersRetry) {
  auto opt = ObjectStore::StandardOptions();
  // Pathological tail: every request draws a ~1 s latency, above the 200 ms
  // timeout, so the client times out through all attempts.
  opt.read_latency = LatencyProfile::FromMedianP95(1000, 1100);
  opt.read_latency.tail_probability = 0;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.max_attempts = 3;
  RetryClient client(&env_, &s3, ropt);
  Status status;
  client.Get("k", {}, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_EQ(client.stats().attempts, 3);
  EXPECT_EQ(client.stats().timeouts, 3);
  EXPECT_EQ(client.stats().permanent_failures, 1);
}

TEST_F(RetryClientTest, LateResponseAfterClientIsDestroyedIsDropped) {
  // A timed-out attempt still gets its store response later. Engine tasks
  // destroy their clients when they finish, so that response can arrive
  // after the client is gone; it must not touch the client. The sanitizer
  // build turns a touch into a heap-use-after-free report.
  auto opt = ObjectStore::StandardOptions();
  opt.read_latency = LatencyProfile::FromMedianP95(1000, 1100);
  opt.read_latency.tail_probability = 0;
  opt.write_latency = opt.read_latency;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.max_attempts = 1;
  auto client = std::make_unique<RetryClient>(&env_, &s3, ropt);
  std::vector<Status> gets;
  std::vector<Status> puts;
  client->Get("k", {}, [&](Result<Blob> r) { gets.push_back(r.status()); });
  client->Put("p", Blob::Synthetic(kKiB), {},
              [&](Status s) { puts.push_back(std::move(s)); });
  env_.RunUntil(Millis(500));
  client.reset();
  env_.Run();  // The store answers both attempts at ~1 s.
  EXPECT_GT(env_.now(), Millis(800));
  ASSERT_EQ(gets.size(), 1u);
  ASSERT_EQ(puts.size(), 1u);
  EXPECT_TRUE(gets[0].IsDeadlineExceeded());
  EXPECT_TRUE(puts[0].IsDeadlineExceeded());
  // The late PUT still landed in the store.
  EXPECT_TRUE(s3.Contains("p"));
}

TEST_F(RetryClientTest, BackoffDelaysGrowExponentially) {
  // A client whose requests always throttle: completion time reflects the
  // cumulative exponential backoff.
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 0;
  opt.partition_read_iops = 0;  // Never admits.
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.full_jitter = false;  // Deterministic delays for the assertion.
  ropt.max_attempts = 6;
  ropt.backoff_base = Millis(25);
  RetryClient client(&env_, &s3, ropt);
  SimTime done_at = 0;
  client.Get("k", {}, [&](Result<Blob>) { done_at = env_.now(); });
  env_.Run();
  // Backoffs: 25+50+100+200+400 = 775 ms plus reject latencies.
  EXPECT_GT(done_at, Millis(775));
  EXPECT_LT(done_at, Millis(775) + Seconds(1));
  EXPECT_EQ(client.stats().attempts, 6);
}

TEST_F(RetryClientTest, StragglersEmergeUnderSustainedRejection) {
  // Section 4.4.1: clients whose requests are repeatedly rejected wait
  // exponentially longer and become stragglers.
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 50;
  opt.partition_read_iops = 300;
  ObjectStore s3(&env_, opt);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(s3.Insert("o" + std::to_string(i), Blob::Synthetic(kKiB)).ok());
  }
  RetryClient client(&env_, &s3, FastOptions());
  std::vector<double> completion_ms;
  // 2K requests against ~300 IOPS: heavy overload.
  for (int i = 0; i < 2000; ++i) {
    const SimTime issue = env_.now();
    client.Get("o" + std::to_string(i % 64), {},
               [&, issue](Result<Blob>) {
                 completion_ms.push_back(ToMillis(env_.now() - issue));
               });
  }
  env_.Run();
  ASSERT_EQ(completion_ms.size(), 2000u);
  std::sort(completion_ms.begin(), completion_ms.end());
  // The slowest clients waited exponentially longer than the fast ones.
  EXPECT_GT(completion_ms.back(), 5 * completion_ms[200]);
  EXPECT_GT(completion_ms.back(), 1000);  // Multi-second stragglers.
}

TEST_F(RetryClientTest, PutRetriesThrottles) {
  auto opt = ObjectStore::StandardOptions();
  opt.write_burst_tokens = 1;
  opt.partition_write_iops = 500;
  ObjectStore s3(&env_, opt);
  RetryClient client(&env_, &s3, FastOptions());
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    client.Put("w" + std::to_string(i), Blob::Synthetic(kKiB), {},
               [&](Status s) { ok += s.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_EQ(ok, 10);
  EXPECT_GT(client.stats().attempts, 10);
}

TEST_F(RetryClientTest, SizeBasedTimeoutExtendsAllowance) {
  RetryClient::Options o = FastOptions();
  o.timeout_per_mib = Millis(100);
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("big", Blob::Synthetic(8 * kMiB)).ok());
  RetryClient client(&env_, &s3, o);
  // 8 MiB at ~62 MiB/s takes ~130 ms transfer + latency; the base 200 ms
  // timeout alone could flake, the size-based allowance (1 s total for the
  // ranged read) must not.
  bool ok = false;
  client.GetRange("big", 0, 8 * kMiB, {}, [&](Result<Blob> r) {
    ok = r.ok();
  });
  env_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(client.stats().timeouts, 0);
}

TEST_F(RetryClientTest, BackoffCapClampsExponentialGrowth) {
  // With a tight cap, many attempts complete quickly: uncapped exponential
  // backoff over 10 attempts would wait 25*(2^9) ms = 12.8 s on the last
  // delay alone; the 100 ms cap bounds every delay.
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 0;
  opt.partition_read_iops = 0;  // Never admits: all attempts throttle.
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.full_jitter = false;
  ropt.max_attempts = 10;
  ropt.backoff_base = Millis(25);
  ropt.backoff_cap = Millis(100);
  RetryClient client(&env_, &s3, ropt);
  SimTime done_at = 0;
  client.Get("k", {}, [&](Result<Blob>) { done_at = env_.now(); });
  env_.Run();
  EXPECT_EQ(client.stats().attempts, 10);
  // Delays: 25+50+100*7 = 775 ms plus reject latencies — far below the
  // ~12.8 s an uncapped schedule would need.
  EXPECT_GT(done_at, Millis(775));
  EXPECT_LT(done_at, Seconds(3));
}

TEST_F(RetryClientTest, TimeoutGrowthLetsSlowTransfersSucceed) {
  auto opt = ObjectStore::StandardOptions();
  // Every request takes ~500 ms: above the initial 200 ms timeout, below
  // the grown allowance of attempt 3 (200 * 1.5^2 = 450... attempt 4: 675).
  opt.read_latency = LatencyProfile::FromMedianP95(500, 510);
  opt.read_latency.tail_probability = 0;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.timeout_growth = 1.5;
  RetryClient client(&env_, &s3, ropt);
  bool ok = false;
  client.Get("k", {}, [&](Result<Blob> r) { ok = r.ok(); });
  env_.Run();
  EXPECT_TRUE(ok);
  EXPECT_GT(client.stats().timeouts, 0);  // Early attempts timed out...
  EXPECT_EQ(client.stats().successes, 1);  // ...a grown one succeeded.

  // With timeout_growth = 1, the 200 ms budget never stretches and the
  // request exhausts all attempts.
  RetryClient::Options flat = FastOptions();
  flat.timeout_growth = 1.0;
  flat.max_attempts = 4;
  RetryClient stubborn(&env_, &s3, flat);
  Status status;
  stubborn.Get("k", {}, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_EQ(stubborn.stats().permanent_failures, 1);
}

TEST_F(RetryClientTest, FullJitterIsDeterministicForFixedStream) {
  // Two identically-seeded environments with identically-streamed clients
  // draw the same jittered backoff schedule: completion times match exactly.
  auto run = [] {
    sim::SimEnvironment env(123);
    auto opt = ObjectStore::StandardOptions();
    opt.read_burst_tokens = 0;
    opt.partition_read_iops = 0;
    ObjectStore s3(&env, opt);
    EXPECT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
    RetryClient::Options ropt;
    ropt.full_jitter = true;
    ropt.max_attempts = 8;
    RetryClient client(&env, &s3, ropt, /*rng_stream=*/501);
    SimTime done_at = 0;
    client.Get("k", {}, [&](Result<Blob>) { done_at = env.now(); });
    env.Run();
    return done_at;
  };
  const SimTime first = run();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, run());
}

TEST_F(RetryClientTest, FailFastStatsCountNonRetriableErrors) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  RetryClient client(&env_, &s3, FastOptions());
  // NotFound fails fast on the first attempt.
  Status get_status;
  client.Get("missing", {}, [&](Result<Blob> r) { get_status = r.status(); });
  env_.Run();
  EXPECT_TRUE(get_status.IsNotFound());
  EXPECT_EQ(client.stats().fail_fasts, 1);
  EXPECT_EQ(client.stats().attempts, 1);

  // An over-limit PUT (InvalidArgument) fails fast too.
  auto opt = ObjectStore::StandardOptions();
  opt.max_object_bytes = kKiB;
  ObjectStore limited(&env_, opt);
  RetryClient writer(&env_, &limited, FastOptions());
  Status put_status;
  writer.Put("big", Blob::Synthetic(kMiB), {},
             [&](Status s) { put_status = std::move(s); });
  env_.Run();
  EXPECT_FALSE(put_status.ok());
  EXPECT_FALSE(put_status.IsRetriable());
  EXPECT_EQ(writer.stats().fail_fasts, 1);
  EXPECT_EQ(writer.stats().attempts, 1);

  // Retriable throttles do NOT count as fail-fasts.
  auto throttling = ObjectStore::StandardOptions();
  throttling.read_burst_tokens = 0;
  throttling.partition_read_iops = 0;
  ObjectStore busy(&env_, throttling);
  ASSERT_TRUE(busy.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt = FastOptions();
  ropt.max_attempts = 3;
  RetryClient reader(&env_, &busy, ropt);
  Status status;
  reader.Get("k", {}, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(reader.stats().fail_fasts, 0);
  EXPECT_EQ(reader.stats().permanent_failures, 1);
}

TEST_F(RetryClientTest, DeadlineCutsOffBackoffLadder) {
  // A never-admitting store with a 100 ms deadline: timeouts and backoff
  // waits are clamped to the remaining lifetime, so the request fails typed
  // shortly after expiry instead of walking the full 775 ms+ backoff ladder
  // (compare BackoffDelaysGrowExponentially).
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 0;
  opt.partition_read_iops = 0;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient client(&env_, &s3, FastOptions());
  ClientContext ctx;
  ctx.deadline = Deadline::At(Millis(100));
  Status status;
  SimTime done_at = 0;
  client.Get("k", ctx, [&](Result<Blob> r) {
    status = r.status();
    done_at = env_.now();
  });
  env_.Run();
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_LE(done_at, Millis(100) + FastOptions().request_timeout);
  EXPECT_GE(client.stats().deadline_rejections, 1);
  EXPECT_EQ(client.stats().permanent_failures, 1);
}

TEST_F(RetryClientTest, ExpiredDeadlineRejectsBeforeFirstAttempt) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  RetryClient client(&env_, &s3, FastOptions());
  ClientContext ctx;
  ctx.deadline = Deadline::At(1);
  env_.Schedule(Millis(5), [&] {
    client.Get("k", ctx, [&](Result<Blob> r) {
      EXPECT_TRUE(r.status().IsDeadlineExceeded());
    });
  });
  env_.Run();
  EXPECT_EQ(client.stats().attempts, 0);
  EXPECT_EQ(client.stats().deadline_rejections, 1);
}

TEST_F(RetryClientTest, RetryBudgetBoundsRetriesAcrossRequests) {
  // Two tokens shared by the query: first attempts are free, but only two
  // retries are granted in total before further requests fail typed.
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 0;
  opt.partition_read_iops = 0;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient client(&env_, &s3, FastOptions());
  RetryBudget::Options bopt;
  bopt.initial_tokens = 2;
  RetryBudget budget(bopt);
  ClientContext ctx;
  ctx.retry_budget = &budget;
  Status status;
  client.Get("k", ctx, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsResourceExhausted());
  // 1 free attempt + 2 budgeted retries, then the denial ends the request
  // well short of max_attempts = 8.
  EXPECT_EQ(client.stats().attempts, 3);
  EXPECT_EQ(client.stats().budget_denials, 1);
  EXPECT_EQ(budget.stats().acquired, 2);
  EXPECT_EQ(budget.stats().denied, 1);
}

TEST_F(RetryClientTest, OpenBreakerShedsWithoutAnAttempt) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  RetryClient client(&env_, &s3, FastOptions());
  CircuitBreaker::Options bopt;
  bopt.name = "storage";
  bopt.min_samples = 2;
  bopt.window = 4;
  CircuitBreaker breaker(bopt);
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ClientContext ctx;
  ctx.breaker = &breaker;
  Status status;
  client.Get("k", ctx, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(client.stats().attempts, 0);
  EXPECT_EQ(client.stats().breaker_rejections, 1);
}

TEST_F(RetryClientTest, OutcomesFeedBreakerAndRefundBudget) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  RetryClient client(&env_, &s3, FastOptions());
  CircuitBreaker breaker;
  RetryBudget::Options bopt;
  bopt.initial_tokens = 4;
  bopt.refund_per_success = 0.25;
  RetryBudget budget(bopt);
  ASSERT_TRUE(budget.TryAcquire());  // Pool below initial: refunds visible.
  ClientContext ctx;
  ctx.breaker = &breaker;
  ctx.retry_budget = &budget;
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    client.Get("k", ctx, [&](Result<Blob> r) { ok += r.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(breaker.stats().successes, 3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_DOUBLE_EQ(budget.stats().refunded, 0.75);
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.75);
}

}  // namespace
}  // namespace skyrise::storage
