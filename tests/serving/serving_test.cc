#include "serving/frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "sim/environment.h"

namespace skyrise::serving {
namespace {

/// Deterministic stand-in for the Lambda fleet: every invocation completes
/// `service_time` later with a minimal coordinator-style response. Tracks
/// the observed per-query-id-prefix (= per-tenant) concurrency so tests can
/// pin that the admission controller — not this platform — is what bounds
/// parallelism.
class FakePlatform : public faas::ComputePlatform {
 public:
  FakePlatform(sim::SimEnvironment* env, SimDuration service_time)
      : env_(env), service_time_(service_time) {}

  void Invoke(const std::string& /*function*/, Json payload,
              faas::ResponseCallback callback) override {
    const std::string query_id = payload.GetString("query_id");
    const std::string tenant = query_id.substr(0, query_id.find('-'));
    const int now_active = ++active_[tenant];
    peak_[tenant] = std::max(peak_[tenant], now_active);
    ++invocations_;
    env_->Schedule(service_time_, [this, tenant, query_id,
                                   callback = std::move(callback)] {
      --active_[tenant];
      Json response = Json::Object();
      response["query_id"] = query_id;
      response["rows"] = static_cast<int64_t>(1);
      callback(response);
    });
  }

  const std::string& platform_name() const override { return name_; }

  int peak(const std::string& tenant) const {
    auto it = peak_.find(tenant);
    return it == peak_.end() ? 0 : it->second;
  }
  int64_t invocations() const { return invocations_; }

 private:
  sim::SimEnvironment* env_;
  SimDuration service_time_;
  std::string name_ = "fake";
  std::map<std::string, int> active_;
  std::map<std::string, int> peak_;
  int64_t invocations_ = 0;
};

TenantSpec Tenant(const std::string& name, double rate, int max_concurrent,
                  double weight = 1.0) {
  TenantSpec spec;
  spec.policy.name = name;
  spec.policy.max_concurrent = max_concurrent;
  spec.policy.weight = weight;
  spec.arrival = ArrivalSpec::Poisson(rate);
  return spec;
}

TEST(ServingFrontendTest, QuotaBoundsTenantConcurrencyAtThePlatform) {
  // 40 q/s against a quota of 3 with 500 ms service: heavily saturated.
  // The pin: the *platform* never sees more than 3 concurrent invocations
  // for the tenant — at-quota arrivals queue in the frontend, they do not
  // invoke — and the backlog is real (queued > 0).
  sim::SimEnvironment env(1234);
  FakePlatform platform(&env, Millis(500));
  ServingOptions options;
  options.horizon = Seconds(20);
  options.global_max_concurrent = 100;
  ServingFrontend frontend(&env, &platform, /*engine=*/nullptr,
                           /*tracer=*/nullptr, /*metrics=*/nullptr, options,
                           {Tenant("alpha", 40.0, 3)});
  frontend.Start();
  frontend.DriveUntil(Hours(1));

  EXPECT_EQ(platform.peak("t0"), 3);
  const auto& stats = frontend.admission().stats(0);
  EXPECT_EQ(stats.peak_in_flight, 3);
  EXPECT_GT(stats.queued, 0);
  EXPECT_GT(stats.arrivals, 400);
  // Offered load (40 q/s) far exceeds capacity (3/0.5 s = 6 q/s), so most
  // of the horizon's arrivals waited.
  EXPECT_GT(stats.queued, stats.arrivals / 2);
}

TEST(ServingFrontendTest, WeightedFairSharesUnderSaturation) {
  // Both tenants offer identical saturating load; the global cap (6) with
  // 300 ms service is the bottleneck. 2:1 weights must yield ~2:1 completed
  // throughput.
  sim::SimEnvironment env(99);
  FakePlatform platform(&env, Millis(300));
  ServingOptions options;
  options.horizon = Seconds(60);
  options.global_max_concurrent = 6;
  ServingFrontend frontend(
      &env, &platform, nullptr, nullptr, nullptr, options,
      {Tenant("gold", 40.0, 100, /*weight=*/2.0),
       Tenant("bronze", 40.0, 100, /*weight=*/1.0)});
  frontend.Start();
  // Drive through the horizon plus drain time; saturation means huge
  // backlogs, so cap the drive and read completions at the cap.
  frontend.DriveUntil(Seconds(61));

  const ServingReport report = frontend.Report();
  ASSERT_EQ(report.tenants.size(), 2u);
  const double gold = static_cast<double>(report.tenants[0].completed);
  const double bronze = static_cast<double>(report.tenants[1].completed);
  ASSERT_GT(bronze, 100.0);
  const double ratio = gold / bronze;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.2);
}

TEST(ServingFrontendTest, ShedsWhenBacklogIsFull) {
  sim::SimEnvironment env(7);
  FakePlatform platform(&env, Seconds(2));
  TenantSpec tenant = Tenant("cap", 50.0, 1);
  tenant.policy.max_queue = 5;
  ServingOptions options;
  options.horizon = Seconds(10);
  ServingFrontend frontend(&env, &platform, nullptr, nullptr, nullptr,
                           options, {tenant});
  frontend.Start();
  frontend.DriveUntil(Hours(1));
  const auto& stats = frontend.admission().stats(0);
  EXPECT_GT(stats.shed, 0);
  EXPECT_LE(stats.peak_queue_depth, 5);
  const ServingReport report = frontend.Report();
  EXPECT_EQ(report.tenants[0].shed, stats.shed);
  EXPECT_EQ(report.total_shed, stats.shed);
}

TEST(ServingFrontendTest, ReportAccountingIsConsistent) {
  sim::SimEnvironment env(55);
  FakePlatform platform(&env, Millis(120));
  ServingOptions options;
  options.horizon = Seconds(30);
  options.global_max_concurrent = 16;
  ServingFrontend frontend(
      &env, &platform, nullptr, nullptr, nullptr, options,
      {Tenant("a", 10.0, 4), Tenant("b", 5.0, 4)});
  frontend.Start();
  frontend.DriveUntil(Hours(1));
  ASSERT_TRUE(frontend.Done());

  const ServingReport report = frontend.Report();
  // Every admitted query completed (fake platform never fails); dispatched
  // equals platform invocations; totals match per-tenant sums.
  EXPECT_EQ(report.total_failed, 0);
  EXPECT_EQ(report.total_dispatched, platform.invocations());
  EXPECT_EQ(report.total_completed,
            report.total_dispatched);  // All drained.
  EXPECT_EQ(report.total_arrivals,
            report.total_dispatched + report.total_shed);
  int64_t class_completed = 0;
  for (const auto& slice : report.classes) class_completed += slice.completed;
  EXPECT_EQ(class_completed, report.total_completed);
  for (const auto& tenant : report.tenants) {
    EXPECT_GT(tenant.completed, 0);
    EXPECT_GT(tenant.p99_ms, 0);
    EXPECT_GE(tenant.p99_ms, tenant.p50_ms);
    int64_t tenant_class_completed = 0;
    for (const auto& slice : tenant.classes) {
      tenant_class_completed += slice.completed;
    }
    EXPECT_EQ(tenant_class_completed, tenant.completed);
  }
}

TEST(ServingFrontendTest, SameSeedReportsAreByteIdentical) {
  auto run = [](uint64_t seed) {
    sim::SimEnvironment env(seed);
    FakePlatform platform(&env, Millis(200));
    ServingOptions options;
    options.horizon = Seconds(30);
    options.global_max_concurrent = 8;
    ServingFrontend frontend(
        &env, &platform, nullptr, nullptr, nullptr, options,
        {Tenant("a", 12.0, 3, 2.0), Tenant("b", 8.0, 3, 1.0)});
    frontend.Start();
    frontend.DriveUntil(Hours(1));
    return frontend.Report().ToJson().Dump(2);
  };
  const std::string first = run(2024);
  const std::string second = run(2024);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, run(2025));  // And the seed actually matters.
}

TEST(ServingFrontendTest, TimelineSamplesCoverTheRun) {
  sim::SimEnvironment env(3);
  FakePlatform platform(&env, Millis(100));
  ServingOptions options;
  options.horizon = Seconds(10);
  options.sample_period = Seconds(1);
  int64_t probe_calls = 0;
  options.fleet_probe = [&probe_calls] { return ++probe_calls; };
  ServingFrontend frontend(&env, &platform, nullptr, nullptr, nullptr,
                           options, {Tenant("a", 5.0, 4)});
  frontend.Start();
  frontend.DriveUntil(Hours(1));
  const ServingReport report = frontend.Report();
  ASSERT_GE(report.timeline.size(), 10u);
  EXPECT_EQ(report.timeline.front().t_s, 0.0);
  EXPECT_GT(probe_calls, 0);
  for (size_t i = 1; i < report.timeline.size(); ++i) {
    EXPECT_GT(report.timeline[i].t_s, report.timeline[i - 1].t_s);
  }
}

TEST(ServingFrontendTest, SloTableRendersEveryTenantAndTotals) {
  sim::SimEnvironment env(3);
  FakePlatform platform(&env, Millis(100));
  ServingOptions options;
  options.horizon = Seconds(5);
  ServingFrontend frontend(&env, &platform, nullptr, nullptr, nullptr,
                           options,
                           {Tenant("alpha", 5.0, 4), Tenant("beta", 5.0, 4)});
  frontend.Start();
  frontend.DriveUntil(Hours(1));
  const std::string table = RenderSloTable(frontend.Report());
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("p99 ms"), std::string::npos);
}

}  // namespace
}  // namespace skyrise::serving
