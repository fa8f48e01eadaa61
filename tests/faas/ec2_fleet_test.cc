#include "faas/ec2_fleet.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace skyrise::faas {
namespace {

class Ec2FleetTest : public ::testing::Test {
 protected:
  Ec2FleetTest() : fabric_driver_(&env_, &fabric_) {
    FunctionConfig config;
    config.name = "task";
    SKYRISE_CHECK_OK(registry_.Register(config, [](const auto& ctx) {
      const SimDuration work = Millis(ctx->payload().GetInt("work_ms", 10));
      ctx->Compute(work, [ctx] {
        Json r = Json::Object();
        r["cold"] = ctx->cold_start();
        ctx->Finish(std::move(r));
      });
    }));
  }

  sim::SimEnvironment env_{13};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  FunctionRegistry registry_;
};

TEST_F(Ec2FleetTest, RunsSameBinaryWithoutColdstart) {
  Ec2Fleet::Options opt;
  opt.instance_count = 2;
  opt.slots_per_instance = 2;
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  fleet.Start(nullptr);
  bool cold = true;
  fleet.Invoke("task", Json::Object(), [&](Result<Json> r) {
    ASSERT_TRUE(r.ok());
    cold = r->GetBool("cold");
  });
  env_.Run();
  EXPECT_FALSE(cold);  // The shim never coldstarts.
}

TEST_F(Ec2FleetTest, QueuesBeyondSlotCapacity) {
  Ec2Fleet::Options opt;
  opt.instance_count = 1;
  opt.slots_per_instance = 2;
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  fleet.Start(nullptr);
  env_.Run();
  Json payload = Json::Object();
  payload["work_ms"] = 100;
  std::vector<SimTime> completions;
  for (int i = 0; i < 6; ++i) {
    fleet.Invoke("task", payload,
                 [&](Result<Json>) { completions.push_back(env_.now()); });
  }
  EXPECT_EQ(fleet.queued(), 4);  // Two dispatched, four queued.
  env_.Run();
  ASSERT_EQ(completions.size(), 6u);
  // Three waves of two: ~100, ~200, ~300 ms.
  EXPECT_NEAR(ToMillis(completions[1]), 100, 5);
  EXPECT_NEAR(ToMillis(completions[3]), 200, 5);
  EXPECT_NEAR(ToMillis(completions[5]), 300, 5);
}

TEST_F(Ec2FleetTest, ProvisioningDelayWhenNotPreProvisioned) {
  Ec2Fleet::Options opt;
  opt.pre_provisioned = false;
  opt.provision_time = Seconds(45);
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  SimTime ready_at = 0;
  fleet.Start([&] { ready_at = env_.now(); });
  env_.Run();
  EXPECT_GT(ready_at, Seconds(25));
  EXPECT_LT(ready_at, Seconds(90));
}

TEST_F(Ec2FleetTest, InvocationsBeforeStartAreQueued) {
  Ec2Fleet::Options opt;
  opt.pre_provisioned = false;
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  bool done = false;
  fleet.Invoke("task", Json::Object(), [&](Result<Json> r) {
    done = r.ok();
  });
  fleet.Start(nullptr);
  env_.Run();
  EXPECT_TRUE(done);
}

TEST_F(Ec2FleetTest, StopBillsFleetLifetime) {
  Ec2Fleet::Options opt;
  opt.instance_count = 4;
  opt.instance_type = "c6g.xlarge";
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  fleet.Start(nullptr);
  env_.Run();
  env_.RunUntil(Hours(1));
  fleet.Stop();
  // 4 instances x 1 h x $0.136.
  EXPECT_NEAR(fleet.meter()->ComputeUsd(), 4 * 0.136, 0.01);
}

TEST_F(Ec2FleetTest, TimeoutKillsLongTasksAndFreesTheSlot) {
  FunctionConfig slow;
  slow.name = "slowtask";
  slow.timeout = Seconds(1);
  SKYRISE_CHECK_OK(registry_.Register(slow, [](const auto& ctx) {
    ctx->Compute(Seconds(60), [ctx] { ctx->Finish(Json::Object()); });
  }));
  Ec2Fleet::Options opt;
  opt.instance_count = 1;
  opt.slots_per_instance = 1;
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  fleet.Start(nullptr);
  Status status;
  SimTime timeout_at = 0;
  fleet.Invoke("slowtask", Json::Object(), [&](Result<Json> r) {
    status = r.status();
    timeout_at = env_.now();
  });
  // The killed task's slot is reclaimed: a queued task runs right after.
  bool ok = false;
  fleet.Invoke("task", Json::Object(), [&](Result<Json> r) { ok = r.ok(); });
  env_.Run();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_LT(timeout_at, Seconds(3));
  EXPECT_TRUE(ok);
  EXPECT_EQ(fleet.stats().timeouts, 1);
  EXPECT_EQ(fleet.stats().errors, 1);
  EXPECT_EQ(fleet.free_slots(), 1);
}

TEST_F(Ec2FleetTest, InjectedWorkerCrashFailsInvocation) {
  sim::FaultInjector::Profile profile;
  profile.function_crash_probability = 1.0;
  profile.crash_delay_max = Millis(100);
  sim::FaultInjector injector(&env_, profile);
  Ec2Fleet::Options opt;
  opt.instance_count = 1;
  opt.slots_per_instance = 1;
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, opt);
  fleet.set_fault_injector(&injector);
  fleet.Start(nullptr);
  Json payload = Json::Object();
  payload["work_ms"] = 60000;
  Status status;
  fleet.Invoke("task", payload, [&](Result<Json> r) { status = r.status(); });
  env_.Run();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(fleet.stats().crashes, 1);
  EXPECT_EQ(fleet.stats().errors, 1);
  EXPECT_EQ(fleet.free_slots(), 1);  // Slot reclaimed after the crash.
}

TEST_F(Ec2FleetTest, UnknownFunctionReportsError) {
  Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, Ec2Fleet::Options());
  obs::MetricsRegistry metrics;
  fleet.set_observer(nullptr, &metrics);
  fleet.Start(nullptr);
  Status status;
  fleet.Invoke("nope", Json::Object(),
               [&](Result<Json> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsNotFound());
  // Counted as Lambda counts a call it cannot admit.
  EXPECT_EQ(fleet.stats().invocations, 1);
  EXPECT_EQ(fleet.stats().errors, 1);
  EXPECT_EQ(metrics.Counter("ec2.invocations"), 1);
  EXPECT_EQ(metrics.Counter("ec2.errors"), 1);
}

}  // namespace
}  // namespace skyrise::faas
