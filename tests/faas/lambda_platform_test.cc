#include "faas/lambda_platform.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "obs/metrics.h"

namespace skyrise::faas {
namespace {

class LambdaPlatformTest : public ::testing::Test {
 protected:
  LambdaPlatformTest() : fabric_driver_(&env_, &fabric_) {
    // A trivial echo function.
    FunctionConfig config;
    config.name = "echo";
    config.memory_mib = 1769;
    SKYRISE_CHECK_OK(registry_.Register(config, [](const auto& ctx) {
      Json response = Json::Object();
      response["echo"] = ctx->payload().GetString("msg");
      response["cold"] = ctx->cold_start();
      ctx->Finish(std::move(response));
    }));
    // A function that computes for a configurable duration.
    FunctionConfig worker;
    worker.name = "worker";
    worker.memory_mib = 7076;
    SKYRISE_CHECK_OK(registry_.Register(worker, [](const auto& ctx) {
      const SimDuration work = Millis(ctx->payload().GetInt("work_ms", 100));
      ctx->Compute(work, [ctx] { ctx->Finish(Json::Object()); });
    }));
  }

  std::unique_ptr<LambdaPlatform> MakePlatform(
      LambdaPlatform::Options opt = LambdaPlatform::Options()) {
    return std::make_unique<LambdaPlatform>(&env_, &fabric_driver_,
                                            &registry_, opt);
  }

  /// Advances a bounded amount of virtual time. Unlike Run(), this does not
  /// fast-forward through pending sandbox reap events scheduled minutes out.
  void RunFor(SimDuration d) { env_.RunUntil(env_.now() + d); }

  sim::SimEnvironment env_{11};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  FunctionRegistry registry_;
};

TEST_F(LambdaPlatformTest, InvokeReturnsResponse) {
  auto platform = MakePlatform();
  Json response;
  Json payload = Json::Object();
  payload["msg"] = "hi";
  platform->Invoke("echo", payload, [&](Result<Json> r) {
    ASSERT_TRUE(r.ok());
    response = *r;
  });
  env_.Run();
  EXPECT_EQ(response.GetString("echo"), "hi");
  EXPECT_TRUE(response.GetBool("cold"));  // First invocation coldstarts.
  EXPECT_EQ(platform->stats().cold_starts, 1);
}

TEST_F(LambdaPlatformTest, SecondInvocationIsWarm) {
  auto platform = MakePlatform();
  int done = 0;
  platform->Invoke("echo", Json::Object(), [&](Result<Json> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  RunFor(Seconds(30));
  EXPECT_EQ(platform->WarmSandboxCount("echo"), 1);
  platform->Invoke("echo", Json::Object(), [&](Result<Json> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->GetBool("cold"));
    ++done;
  });
  RunFor(Seconds(30));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(platform->stats().warm_starts, 1);
}

TEST_F(LambdaPlatformTest, WarmStartMuchFasterThanCold) {
  auto platform = MakePlatform();
  SimTime cold_done = 0;
  platform->Invoke("echo", Json::Object(),
                   [&](Result<Json>) { cold_done = env_.now(); });
  RunFor(Seconds(30));
  const SimTime warm_begin = env_.now();
  SimTime warm_done = 0;
  platform->Invoke("echo", Json::Object(),
                   [&](Result<Json>) { warm_done = env_.now(); });
  RunFor(Seconds(30));
  EXPECT_LT(warm_done - warm_begin, cold_done / 2);
}

TEST_F(LambdaPlatformTest, ColdstartGrowsWithBinarySize) {
  // Section 3.2: binaries are kept small (<10 MiB) to shorten coldstarts.
  FunctionConfig big;
  big.name = "bigbin";
  big.binary_size_bytes = 200 * kMiB;
  SKYRISE_CHECK_OK(registry_.Register(
      big, [](const auto& ctx) { ctx->Finish(Json::Object()); }));
  std::vector<double> small_ms, big_ms;
  for (int i = 0; i < 40; ++i) {
    // Fresh platforms so every invocation coldstarts.
    auto platform = MakePlatform();
    const SimTime t0 = env_.now();
    platform->Invoke("echo", Json::Object(), [&](Result<Json>) {
      small_ms.push_back(ToMillis(env_.now() - t0));
    });
    env_.Run();
    const SimTime t1 = env_.now();
    platform->Invoke("bigbin", Json::Object(), [&](Result<Json>) {
      big_ms.push_back(ToMillis(env_.now() - t1));
    });
    env_.Run();
  }
  EXPECT_GT(stats::Median(big_ms), 2 * stats::Median(small_ms));
}

TEST_F(LambdaPlatformTest, AccountConcurrencyThrottles) {
  LambdaPlatform::Options opt;
  opt.account_concurrency = 10;
  opt.burst_concurrency = 10;
  auto platform = MakePlatform(opt);
  int ok = 0, throttled = 0;
  Json payload = Json::Object();
  payload["work_ms"] = 5000;
  for (int i = 0; i < 25; ++i) {
    platform->Invoke("worker", payload, [&](Result<Json> r) {
      if (r.ok()) {
        ++ok;
      } else if (r.status().IsResourceExhausted()) {
        ++throttled;
      }
    });
  }
  env_.Run();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(throttled, 15);
}

TEST_F(LambdaPlatformTest, BurstThenRampScaling) {
  LambdaPlatform::Options opt;
  opt.account_concurrency = 10000;
  opt.burst_concurrency = 100;       // Scaled-down burst for the test.
  opt.scale_rate_per_minute = 60;    // +1 per second.
  auto platform = MakePlatform(opt);
  Json payload = Json::Object();
  payload["work_ms"] = 600000;  // Long-running: they pile up.
  int ok_immediately = 0, throttled_immediately = 0;
  for (int i = 0; i < 150; ++i) {
    platform->Invoke("worker", payload, [&](Result<Json> r) {
      if (!r.ok()) ++throttled_immediately;
    });
  }
  env_.RunUntil(Seconds(2));
  // Only the burst limit is admitted instantly.
  EXPECT_EQ(platform->active_executions(), 100);
  EXPECT_EQ(throttled_immediately, 50);
  (void)ok_immediately;
  // A minute later the ramp has opened ~60 more slots.
  env_.RunUntil(Minutes(1));
  int admitted_later = 0, throttled_later = 0;
  for (int i = 0; i < 100; ++i) {
    platform->Invoke("worker", payload, [&](Result<Json> r) {
      if (!r.ok()) ++throttled_later;
    });
  }
  env_.RunUntil(Minutes(1) + Seconds(2));
  EXPECT_NEAR(platform->active_executions(), 160, 5);
  EXPECT_NEAR(throttled_later, 40, 5);
  (void)admitted_later;
}

TEST_F(LambdaPlatformTest, SandboxesReapedAfterIdleLifetime) {
  auto platform = MakePlatform();
  platform->Invoke("echo", Json::Object(), [](Result<Json>) {});
  RunFor(Seconds(30));
  EXPECT_EQ(platform->WarmSandboxCount("echo"), 1);
  // Idle lifetimes are minutes-scale; after an hour everything is reaped.
  env_.RunUntil(env_.now() + Hours(1));
  EXPECT_EQ(platform->WarmSandboxCount("echo"), 0);
  EXPECT_EQ(platform->stats().reaped_sandboxes, 1);
}

TEST_F(LambdaPlatformTest, WarmInvocationSpillsNoCallbacks) {
  // Every event of an invocation captures the platform and its shared
  // record plus at most a span id or a flag (32 B), and the sandbox reap
  // closure is 48 B and nothrow-movable: all fit the kernel's inline buffer.
  auto platform = MakePlatform();
  platform->Invoke("echo", Json::Object(), [](Result<Json>) {});
  RunFor(Seconds(30));
  constexpr int kWarm = 5;
  const uint64_t before = env_.pool_stats().heap_callbacks;
  int warm = 0;
  for (int i = 0; i < kWarm; ++i) {
    platform->Invoke("echo", Json::Object(), [&](Result<Json> r) {
      ASSERT_TRUE(r.ok());
      warm += r->GetBool("cold") ? 0 : 1;
    });
    RunFor(Seconds(30));
  }
  EXPECT_EQ(warm, kWarm);
  EXPECT_EQ(env_.pool_stats().heap_callbacks - before, 0u);
}

TEST_F(LambdaPlatformTest, PrewarmAvoidsColdstarts) {
  auto platform = MakePlatform();
  platform->Prewarm("echo", 5);
  EXPECT_EQ(platform->WarmSandboxCount("echo"), 5);
  int colds = 0;
  for (int i = 0; i < 5; ++i) {
    platform->Invoke("echo", Json::Object(), [&](Result<Json> r) {
      ASSERT_TRUE(r.ok());
      colds += r->GetBool("cold") ? 1 : 0;
    });
  }
  env_.Run();
  EXPECT_EQ(colds, 0);
  EXPECT_EQ(platform->stats().cold_starts, 0);
}

TEST_F(LambdaPlatformTest, UnknownFunctionFails) {
  auto platform = MakePlatform();
  obs::MetricsRegistry metrics;
  platform->set_observer(nullptr, &metrics);
  Status status;
  platform->Invoke("nope", Json::Object(),
                   [&](Result<Json> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(platform->stats().invocations, 1);
  EXPECT_EQ(platform->stats().errors, 1);
  EXPECT_EQ(metrics.Counter("lambda.invocations"), 1);
  EXPECT_EQ(metrics.Counter("lambda.errors"), 1);
}

TEST_F(LambdaPlatformTest, BillingPerMillisecondAndMemory) {
  auto platform = MakePlatform();
  Json payload = Json::Object();
  payload["work_ms"] = 1000;
  platform->Invoke("worker", payload, [](Result<Json>) {});
  env_.Run();
  // 7076 MiB for ~1 s: ~6.91 GiB-s ~= $9.2e-5 plus request fee.
  EXPECT_NEAR(platform->meter()->ComputeUsd(), 6.91 * 1.33334e-5 + 2e-7,
              2e-6);
  EXPECT_EQ(platform->meter()->lambda_invocations(), 1);
}

TEST_F(LambdaPlatformTest, RegionContentionSlowsColdstarts) {
  LambdaPlatform::Options eu;
  eu.region_contention = 1.5;
  eu.coldstart_straggler_probability = 0;
  LambdaPlatform::Options us;
  us.coldstart_straggler_probability = 0;
  std::vector<double> us_ms, eu_ms;
  for (int i = 0; i < 60; ++i) {
    auto us_platform = MakePlatform(us);
    auto eu_platform = MakePlatform(eu);
    SimTime t0 = env_.now();
    us_platform->Invoke("echo", Json::Object(), [&](Result<Json>) {
      us_ms.push_back(ToMillis(env_.now() - t0));
    });
    env_.Run();
    SimTime t1 = env_.now();
    eu_platform->Invoke("echo", Json::Object(), [&](Result<Json>) {
      eu_ms.push_back(ToMillis(env_.now() - t1));
    });
    env_.Run();
  }
  EXPECT_GT(stats::Median(eu_ms), 1.25 * stats::Median(us_ms));
}

TEST_F(LambdaPlatformTest, TimeoutKillsLongExecutions) {
  FunctionConfig slow;
  slow.name = "slowpoke";
  slow.timeout = Seconds(1);
  SKYRISE_CHECK_OK(registry_.Register(slow, [](const auto& ctx) {
    ctx->Compute(Seconds(30), [ctx] { ctx->Finish(Json::Object()); });
  }));
  auto platform = MakePlatform();
  Status status;
  SimTime done_at = 0;
  platform->Invoke("slowpoke", Json::Object(), [&](Result<Json> r) {
    status = r.status();
    done_at = env_.now();
  });
  env_.Run();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // Killed at the configured timeout, not after the 30 s of work.
  EXPECT_LT(done_at, Seconds(3));
  EXPECT_EQ(platform->stats().timeouts, 1);
  EXPECT_EQ(platform->stats().errors, 1);
  // A timed-out execution environment is torn down, not reused.
  EXPECT_EQ(platform->WarmSandboxCount("slowpoke"), 0);
}

TEST_F(LambdaPlatformTest, ExecutionsFinishingInTimeAreNotKilled) {
  FunctionConfig quick;
  quick.name = "quick";
  quick.timeout = Seconds(10);
  SKYRISE_CHECK_OK(registry_.Register(quick, [](const auto& ctx) {
    ctx->Compute(Millis(50), [ctx] { ctx->Finish(Json::Object()); });
  }));
  auto platform = MakePlatform();
  bool ok = false;
  platform->Invoke("quick", Json::Object(),
                   [&](Result<Json> r) { ok = r.ok(); });
  RunFor(Seconds(30));
  EXPECT_TRUE(ok);
  EXPECT_EQ(platform->stats().timeouts, 0);
  EXPECT_EQ(platform->WarmSandboxCount("quick"), 1);
}

TEST_F(LambdaPlatformTest, InjectedCrashFailsExecutionButKeepsSandbox) {
  sim::FaultInjector::Profile profile;
  profile.function_crash_probability = 1.0;
  profile.crash_delay_max = Millis(200);
  sim::FaultInjector injector(&env_, profile);
  auto platform = MakePlatform();
  platform->set_fault_injector(&injector);
  Json payload = Json::Object();
  payload["work_ms"] = 60000;
  Status status;
  platform->Invoke("worker", payload,
                   [&](Result<Json> r) { status = r.status(); });
  RunFor(Minutes(2));
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(platform->stats().crashes, 1);
  EXPECT_EQ(platform->stats().errors, 1);
  // A handler crash loses the execution, not the sandbox.
  EXPECT_EQ(platform->WarmSandboxCount("worker"), 1);
}

TEST_F(LambdaPlatformTest, InjectedSandboxKillEmptiesWarmPool) {
  sim::FaultInjector::Profile profile;
  profile.sandbox_kill_probability = 1.0;
  profile.crash_delay_max = Millis(200);
  sim::FaultInjector injector(&env_, profile);
  auto platform = MakePlatform();
  platform->set_fault_injector(&injector);
  Json payload = Json::Object();
  payload["work_ms"] = 60000;
  Status status;
  platform->Invoke("worker", payload,
                   [&](Result<Json> r) { status = r.status(); });
  RunFor(Minutes(2));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(platform->stats().crashes, 1);
  EXPECT_EQ(platform->WarmSandboxCount("worker"), 0);
}

TEST_F(LambdaPlatformTest, CrashExemptFunctionRunsNormally) {
  sim::FaultInjector::Profile profile;
  profile.function_crash_probability = 1.0;
  profile.crash_delay_max = Millis(10);
  profile.crash_exempt_functions = {"echo"};
  sim::FaultInjector injector(&env_, profile);
  auto platform = MakePlatform();
  platform->set_fault_injector(&injector);
  bool ok = false;
  platform->Invoke("echo", Json::Object(),
                   [&](Result<Json> r) { ok = r.ok(); });
  env_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(platform->stats().crashes, 0);
}

}  // namespace
}  // namespace skyrise::faas
