#pragma once

#include <memory>

#include "engine/engine.h"
#include "net/fabric_driver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/object_store.h"

/// \file testbed.h
/// Pre-wired simulation testbeds for experiments: environment, fabric, the
/// four storage services, the FaaS platform, and (optionally) a deployed
/// query engine. Benches and examples build on this instead of repeating
/// the wiring.

namespace skyrise::platform {

/// Resource-level testbed: network + storage + FaaS.
struct Testbed {
  explicit Testbed(uint64_t seed = 42, double fabric_jitter = 0.0)
      : env(seed),
        fabric(MakeFabricOptions(seed, fabric_jitter)),
        fabric_driver(&env, &fabric),
        s3(&env, storage::ObjectStore::StandardOptions(), 1001),
        s3express(&env, storage::ObjectStore::ExpressOptions(), 1002),
        dynamodb(&env, storage::ObjectStore::DynamoDbOptions(), 1003),
        efs(&env, storage::ObjectStore::EfsOptions(), 1004) {}

  static net::Fabric::Options MakeFabricOptions(uint64_t seed, double jitter) {
    net::Fabric::Options options;
    options.seed = seed ^ 0xF00D;
    options.jitter_sigma = jitter;
    return options;
  }

  sim::SimEnvironment env;
  net::Fabric fabric;
  net::FabricDriver fabric_driver;
  storage::ObjectStore s3;
  storage::ObjectStore s3express;
  storage::ObjectStore dynamodb;
  storage::ObjectStore efs;
};

/// Query-engine testbed on top of a Testbed: registry, Lambda platform,
/// engine wiring, synthetic catalog, shared cost meter.
struct EngineTestbed {
  explicit EngineTestbed(uint64_t seed = 42,
                         storage::ObjectStore* shuffle_store = nullptr)
      : base(seed), queue(&base.env) {
    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;  // The paper's quota raise.
    lambda = std::make_unique<faas::LambdaPlatform>(
        &base.env, &base.fabric_driver, &registry, lambda_options);
    lambda->set_observer(&tracer, &metrics);
    engine::EngineContext context;
    context.env = &base.env;
    context.table_store = &base.s3;
    context.shuffle_store =
        shuffle_store != nullptr ? shuffle_store : &base.s3;
    context.catalog = &catalog;
    context.queue = &queue;
    context.meter = &meter;
    // The testbed's 2-hour horizon is enforced as a real query deadline:
    // a query that outlives it fails typed (DeadlineExceeded, spans closed)
    // through the coordinator instead of the drive loop silently bailing.
    context.query_deadline = Hours(2);
    engine = std::make_unique<engine::QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine->Deploy(&registry));
  }

  /// Runs a plan on a platform until the response arrives. The engine
  /// context's 2-hour query deadline bounds the run; the drive loop's
  /// slightly longer horizon is only a backstop against a wedged simulation.
  /// Stops at completion so warm sandbox/bucket state is preserved for
  /// back-to-back runs.
  [[nodiscard]] Result<engine::QueryResponse> RunOn(faas::ComputePlatform* platform,
                                      const engine::QueryPlan& plan,
                                      const std::string& query_id,
                                      int partitions_per_worker = 0) {
    Result<engine::QueryResponse> outcome =
        Status::DeadlineExceeded("query did not finish in the horizon");
    bool done = false;
    engine->Run(platform, plan, query_id,
                [&](Result<engine::QueryResponse> r) {
                  outcome = std::move(r);
                  done = true;
                },
                partitions_per_worker);
    const SimTime horizon = base.env.now() + Hours(2) + Minutes(5);
    while (!done && base.env.now() < horizon) {
      if (!base.env.Step()) break;
    }
    return outcome;
  }

  [[nodiscard]] Result<engine::QueryResponse> RunOnLambda(const engine::QueryPlan& plan,
                                            const std::string& query_id,
                                            int partitions_per_worker = 0) {
    return RunOn(lambda.get(), plan, query_id, partitions_per_worker);
  }

  [[nodiscard]] Result<engine::QueryResponse> RunOnFleet(faas::Ec2Fleet* fleet,
                                           const engine::QueryPlan& plan,
                                           const std::string& query_id,
                                           int partitions_per_worker = 0) {
    return RunOn(fleet, plan, query_id, partitions_per_worker);
  }

  Testbed base;
  storage::QueueService queue;
  format::SyntheticFileCatalog catalog;
  pricing::CostMeter meter;
  /// Query tracing + metrics; the Lambda platform publishes here (spans on
  /// tracks "lambda"/"worker"/"coordinator"/"fragments"/"storage/<svc>").
  /// Ec2 fleets join via `fleet.set_observer(&tracer, &metrics)`.
  obs::Tracer tracer{&base.env};
  obs::MetricsRegistry metrics;
  faas::FunctionRegistry registry;
  std::unique_ptr<faas::LambdaPlatform> lambda;
  std::unique_ptr<engine::QueryEngine> engine;
};

}  // namespace skyrise::platform
