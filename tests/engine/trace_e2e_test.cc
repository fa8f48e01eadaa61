#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "storage/object_store.h"

namespace skyrise::engine {
namespace {

/// End-to-end tracing: TPC-H Q12 under an aggressive fault profile with the
/// observability sinks attached. The exported Chrome trace must be a pure
/// function of the seed (byte-identical across two identically-seeded runs),
/// structurally valid (every span closed, children properly parented), cover
/// the full mechanism lifecycle (coldstarts, crashes, storage faults and
/// retries, worker phases), and reconcile exactly against the cost meters.
class TraceE2ETest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 6;
  static constexpr uint64_t kSeed = 2024;

  struct Stack {
    explicit Stack(const sim::FaultInjector::Profile& profile)
        : env(kSeed),
          fabric_driver(&env, &fabric),
          store(&env, storage::ObjectStore::StandardOptions()),
          queue(&env),
          injector(&env, profile),
          tracer(&env) {
      datagen::TpchConfig tpch;
      tpch.scale_factor = 0.002;
      (void)*datagen::UploadDataset(
          &store, "lineitem", datagen::LineitemSchema(), kPartitions,
          [&](int p) {
            return datagen::GenerateLineitemPartition(tpch, p, kPartitions);
          });
      (void)*datagen::UploadDataset(
          &store, "orders", datagen::OrdersSchema(), kPartitions, [&](int p) {
            return datagen::GenerateOrdersPartition(tpch, p, kPartitions);
          });

      EngineContext context;
      context.env = &env;
      context.table_store = &store;
      context.shuffle_store = &store;
      context.catalog = &catalog;
      context.queue = &queue;
      context.meter = &meter;
      context.partitions_per_worker = 2;
      context.worker_max_attempts = 8;
      engine = std::make_unique<QueryEngine>(std::move(context));
      SKYRISE_CHECK_OK(engine->Deploy(&registry));

      faas::LambdaPlatform::Options lambda_options;
      lambda_options.account_concurrency = 10000;
      lambda = std::make_unique<faas::LambdaPlatform>(
          &env, &fabric_driver, &registry, lambda_options);
      lambda->set_observer(&tracer, &metrics);
      store.set_fault_injector(&injector);
      lambda->set_fault_injector(&injector);
    }

    QueryResponse Run(const QueryPlan& plan, const std::string& id) {
      Result<QueryResponse> outcome = Status::Internal("did not complete");
      engine->Run(lambda.get(), plan, id,
                  [&](Result<QueryResponse> r) { outcome = std::move(r); });
      // The horizon also drains zombie executions (crashed workers whose
      // handlers keep running), so every span is closed at export time.
      env.RunUntil(env.now() + Minutes(60));
      SKYRISE_CHECK_OK(outcome.status());
      return std::move(outcome).ValueUnsafe();
    }

    sim::SimEnvironment env;
    net::Fabric fabric;
    net::FabricDriver fabric_driver;
    storage::ObjectStore store;
    storage::QueueService queue;
    format::SyntheticFileCatalog catalog;
    pricing::CostMeter meter;
    faas::FunctionRegistry registry;
    sim::FaultInjector injector;
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    std::unique_ptr<QueryEngine> engine;
    std::unique_ptr<faas::LambdaPlatform> lambda;
  };

  static sim::FaultInjector::Profile AggressiveProfile() {
    sim::FaultInjector::Profile p;
    p.storage_read_error_probability = 0.03;
    p.storage_write_error_probability = 0.03;
    p.storage_burst_error_probability = 0.4;
    p.storage_burst_duration = Seconds(1);
    p.storage_burst_interval = Seconds(15);
    p.function_crash_probability = 0.20;
    p.sandbox_kill_probability = 0.05;
    p.crash_delay_max = Millis(400);
    p.crash_exempt_functions = {kCoordinatorFunction};
    p.invoke_delay_probability = 0.1;
    p.invoke_delay_max = Millis(300);
    return p;
  }

  static QueryPlan Q12() {
    QuerySuiteOptions options;
    options.join_partitions = 4;
    return BuildTpchQ12(options);
  }
};

TEST_F(TraceE2ETest, SameSeedChaosTracesAreByteIdentical) {
  Stack first(AggressiveProfile());
  Stack second(AggressiveProfile());
  (void)first.Run(Q12(), "q12");
  (void)second.Run(Q12(), "q12");

  ASSERT_GT(first.tracer.spans().size(), 0u);
  EXPECT_EQ(first.tracer.DumpChromeTrace(), second.tracer.DumpChromeTrace());
  EXPECT_EQ(first.metrics.ToJson().Dump(), second.metrics.ToJson().Dump());
}

TEST_F(TraceE2ETest, ChaosTraceIsStructurallyValidAndCoversLifecycles) {
  Stack chaos(AggressiveProfile());
  const auto response = chaos.Run(Q12(), "q12");
  ASSERT_GT(chaos.injector.stats().function_crashes, 0);
  ASSERT_GT(chaos.injector.stats().storage_errors, 0);
  ASSERT_GT(response.worker_retries, 0);

  // Every span closed, every child correctly parented.
  EXPECT_TRUE(chaos.tracer.Validate().ok()) << chaos.tracer.Validate().ToString();
  EXPECT_EQ(chaos.tracer.open_spans(), 0);

  // Lifecycle coverage: invoke/coldstart, crash settles, storage faults and
  // retry attempts, worker phases, stage/fragment spans all present.
  std::set<std::string> names;
  std::set<std::string> outcomes;
  std::set<std::string> tracks;
  bool saw_retry_attempt = false;
  const obs::Tracer& tracer = chaos.tracer;
  for (const auto& span : tracer.spans()) {
    names.emplace(tracer.str(span.name));
    tracks.emplace(tracer.str(span.track));
    if (span.outcome != 0) outcomes.emplace(tracer.str(span.outcome));
    if (tracer.str(span.track) == "storage/s3" &&
        tracer.str(span.name) == "attempt 2") {
      saw_retry_attempt = true;
    }
  }
  EXPECT_TRUE(names.count("invoke skyrise-worker") > 0);
  EXPECT_TRUE(names.count("coldstart") > 0);
  EXPECT_TRUE(names.count("fault.injected") > 0);
  EXPECT_TRUE(names.count("input") > 0);
  EXPECT_TRUE(names.count("compute") > 0);
  EXPECT_TRUE(names.count("output") > 0);
  EXPECT_TRUE(names.count("plan") > 0);
  EXPECT_TRUE(names.count("f0 a1") > 0);
  EXPECT_TRUE(saw_retry_attempt);
  EXPECT_TRUE(outcomes.count("crash") > 0);
  EXPECT_TRUE(tracks.count("lambda") > 0);
  EXPECT_TRUE(tracks.count("coordinator") > 0);
  EXPECT_TRUE(tracks.count("fragments") > 0);
  EXPECT_TRUE(tracks.count("worker") > 0);

  // The stage spans carry the fault-repair annotations the response reports.
  int64_t stage_span_retries = 0;
  for (const auto& span : tracer.spans()) {
    if (tracer.str(span.track) == "coordinator" &&
        tracer.str(span.name).rfind("stage ", 0) == 0) {
      stage_span_retries += tracer.Args(span.id).GetInt("retries");
    }
  }
  EXPECT_EQ(stage_span_retries, response.worker_retries);

  // The metrics registry mirrors the platform stats.
  EXPECT_EQ(chaos.metrics.Counter("lambda.crashes"),
            chaos.lambda->stats().crashes);
  EXPECT_EQ(chaos.metrics.Counter("lambda.cold_starts"),
            chaos.lambda->stats().cold_starts);
  EXPECT_GT(chaos.metrics.Counter("storage.s3.retries"), 0);
  ASSERT_NE(chaos.metrics.Hist("worker.input_ms"), nullptr);
  EXPECT_EQ(chaos.metrics.Hist("worker.input_ms")->count(),
            chaos.metrics.Counter("worker.fragments"));
}

TEST_F(TraceE2ETest, PerSpanCostsReconcileExactlyWithMeters) {
  Stack chaos(AggressiveProfile());
  (void)chaos.Run(Q12(), "q12");

  // Bucket totals are bitwise-equal to the meters: the same doubles were
  // added in the same order.
  EXPECT_EQ(chaos.tracer.attributed_usd("storage"), chaos.meter.StorageUsd());
  EXPECT_EQ(chaos.tracer.attributed_usd("faas"),
            chaos.lambda->meter()->ComputeUsd());
  EXPECT_EQ(chaos.tracer.attributed_usd("unattributed"), 0.0);

  // Re-summing per span regroups hundreds of additions, so the comparison is
  // only up to floating-point reassociation (same bound trace_check uses).
  double span_sum = 0;
  for (const auto& span : chaos.tracer.spans()) span_sum += span.cost_usd;
  EXPECT_NEAR(span_sum, chaos.tracer.attributed_usd_total(), 1e-9);
  EXPECT_NEAR(span_sum,
              chaos.meter.StorageUsd() + chaos.lambda->meter()->ComputeUsd(),
              1e-9);
  EXPECT_GT(span_sum, 0.0);
}

}  // namespace
}  // namespace skyrise::engine
