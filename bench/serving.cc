/// Serving scenario bench: a three-tenant user population (interactive,
/// analytics, and a bursty batch tenant) drives 1,000+ suite queries through
/// the multi-tenant frontend against one shared Lambda fleet, and emits
/// BENCH_serving.json — per-tenant and per-class qps / p50 / p99 / USD per
/// 1k queries, the admission counters, the fleet's warm/cold split, and a
/// per-second concurrency timeline showing the bursty tenant's step load
/// rippling through the shared warm pool (the paper's Fig. 1 burst-then-ramp
/// admission path).
///
/// The whole scenario is a pure function of the seed: two runs write
/// byte-identical JSON (pinned by tests/serving), apart from the `host`
/// block, which records what the run cost this machine (peak RSS). With
/// --check-baseline <file>, the gates in bench/serving_baseline.json are
/// enforced and the process exits non-zero on regression: machine-
/// independent bounds on the simulated quantities, plus a generous host
/// peak-RSS ceiling that catches leaked engine state. CI runs this next to
/// the query-regression smoke.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/report.h"
#include "serving/frontend.h"
#include "storage/object_store.h"

#include "host_stats.h"

using namespace skyrise;

namespace {

constexpr int kPartitions = 4;
constexpr uint64_t kSeed = 2024;

struct Testbed {
  Testbed()
      : env(kSeed),
        fabric_driver(&env, &fabric),
        store(&env, storage::ObjectStore::StandardOptions()),
        queue(&env),
        tracer(&env) {
    datagen::TpchConfig tpch;
    tpch.scale_factor = 0.002;
    datagen::TpcxBbConfig bb;
    bb.scale_factor = 0.01;
    (void)*datagen::UploadDataset(
        &store, "lineitem", datagen::LineitemSchema(), kPartitions, [&](int p) {
          return datagen::GenerateLineitemPartition(tpch, p, kPartitions);
        });
    (void)*datagen::UploadDataset(
        &store, "orders", datagen::OrdersSchema(), kPartitions, [&](int p) {
          return datagen::GenerateOrdersPartition(tpch, p, kPartitions);
        });
    (void)*datagen::UploadDataset(
        &store, "clickstreams", datagen::ClickstreamsSchema(), kPartitions,
        [&](int p) {
          return datagen::GenerateClickstreamsPartition(bb, p, kPartitions);
        });
    (void)*datagen::UploadDataset(&store, "item", datagen::ItemSchema(), 1,
                                  [&](int) {
                                    return datagen::GenerateItemTable(bb);
                                  });

    engine::EngineContext context;
    context.env = &env;
    context.table_store = &store;
    context.shuffle_store = &store;
    context.catalog = &catalog;
    context.queue = &queue;
    context.meter = &meter;
    context.partitions_per_worker = 2;
    context.query_deadline = Minutes(30);
    engine = std::make_unique<engine::QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine->Deploy(&registry));

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda = std::make_unique<faas::LambdaPlatform>(&env, &fabric_driver,
                                                    &registry, lambda_options);
    lambda->set_observer(&tracer, &metrics);
  }

  sim::SimEnvironment env;
  net::Fabric fabric;
  net::FabricDriver fabric_driver;
  storage::ObjectStore store;
  storage::QueueService queue;
  format::SyntheticFileCatalog catalog;
  pricing::CostMeter meter;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  faas::FunctionRegistry registry;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<faas::LambdaPlatform> lambda;
};

std::vector<serving::TenantSpec> Population() {
  using serving::ArrivalSpec;
  using serving::TenantSpec;
  using serving::WorkloadMix;

  // An interactive tenant (steady point lookups, double fair-share weight),
  // an analytics tenant (steady heavier queries), and a batch tenant whose
  // interrupted-Poisson bursts (10x for ~10 s, then near-idle) provide the
  // step load that exercises the shared fleet's burst-then-ramp path.
  TenantSpec interactive;
  interactive.policy.name = "interactive";
  interactive.policy.max_concurrent = 8;
  interactive.policy.weight = 2.0;
  interactive.arrival = ArrivalSpec::Poisson(2.0);
  interactive.mix = WorkloadMix::Interactive();

  TenantSpec analytics;
  analytics.policy.name = "analytics";
  analytics.policy.max_concurrent = 6;
  analytics.policy.weight = 1.0;
  analytics.arrival = ArrivalSpec::Poisson(1.0);
  analytics.mix = WorkloadMix::Analytics();

  TenantSpec batch;
  batch.policy.name = "batch";
  batch.policy.max_concurrent = 10;
  batch.policy.weight = 1.0;
  batch.arrival =
      ArrivalSpec::Bursty(1.0, 10.0, Seconds(10), Seconds(40));
  batch.mix = WorkloadMix::Uniform();

  return {interactive, analytics, batch};
}

int CheckBaseline(const std::string& path, const Json& report) {
  std::ifstream in(path);
  if (!in.good()) {
    std::printf("FAIL: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::Parse(buffer.str());
  if (!parsed.ok()) {
    std::printf("FAIL: bad baseline JSON: %s\n",
                parsed.status().message().c_str());
    return 1;
  }
  const Json baseline = std::move(parsed).ValueUnsafe();
  const Json totals = report.Get("totals");

  int failures = 0;
  auto gate_min = [&](const char* name, double measured, double floor) {
    const bool ok = measured >= floor;
    std::printf("  %-28s %14.3f  (min %12.3f)  %s\n", name, measured, floor,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  auto gate_max = [&](const char* name, double measured, double ceiling) {
    const bool ok = measured <= ceiling;
    std::printf("  %-28s %14.3f  (max %12.3f)  %s\n", name, measured, ceiling,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  const double dispatched =
      static_cast<double>(totals.GetInt("dispatched"));
  const double completed = static_cast<double>(totals.GetInt("completed"));
  const double failed = static_cast<double>(totals.GetInt("failed"));
  const Json fleet = report.Get("fleet");
  const double warm = static_cast<double>(fleet.GetInt("warm_starts"));
  const double invocations =
      static_cast<double>(fleet.GetInt("invocations"));

  std::printf("\nbaseline gates (%s):\n", path.c_str());
  gate_min("dispatched", dispatched, baseline.GetDouble("min_dispatched"));
  gate_min("completed", completed, baseline.GetDouble("min_completed"));
  gate_max("failed_fraction",
           dispatched == 0 ? 0 : failed / dispatched,
           baseline.GetDouble("max_failed_fraction"));
  gate_min("queries_per_sec", totals.GetDouble("queries_per_sec"),
           baseline.GetDouble("min_queries_per_sec"));
  gate_max("p99_ms", totals.GetDouble("p99_ms"),
           baseline.GetDouble("max_p99_ms"));
  gate_min("cost_per_1k_usd", totals.GetDouble("cost_per_1k_usd"),
           baseline.GetDouble("min_cost_per_1k_usd"));
  gate_max("cost_per_1k_usd", totals.GetDouble("cost_per_1k_usd"),
           baseline.GetDouble("max_cost_per_1k_usd"));
  gate_min("warm_start_fraction",
           invocations == 0 ? 0 : warm / invocations,
           baseline.GetDouble("min_warm_start_fraction"));
  gate_min("fleet_active_peak",
           static_cast<double>(fleet.GetInt("active_peak")),
           baseline.GetDouble("min_fleet_active_peak"));
  gate_max("host.peak_rss_mib", report.Get("host").GetDouble("peak_rss_mib"),
           baseline.GetDouble("max_peak_rss_mib"));
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  platform::PrintHeader(
      "Serving scenario",
      "Multi-tenant frontend on one shared Lambda fleet (BENCH_serving.json)");

  Testbed bed;
  serving::ServingOptions options;
  options.horizon = Seconds(240);
  options.global_max_concurrent = 24;
  options.suite.join_partitions = kPartitions;
  options.fleet_probe = [&bed] {
    return static_cast<int64_t>(bed.lambda->active_executions());
  };
  serving::ServingFrontend frontend(&bed.env, bed.lambda.get(),
                                    bed.engine.get(), &bed.tracer,
                                    &bed.metrics, options, Population());
  frontend.Start();
  frontend.DriveUntil(bed.env.now() + Hours(2));
  SKYRISE_CHECK(frontend.Done());

  const serving::ServingReport report = frontend.Report();
  std::fputs(serving::RenderSloTable(report).c_str(), stdout);

  const auto& stats = bed.lambda->stats();
  std::printf(
      "\nfleet: %lld invocations | %lld cold / %lld warm starts | "
      "%lld sandboxes created | active peak %lld | warm-pool peak %lld\n",
      static_cast<long long>(stats.invocations),
      static_cast<long long>(stats.cold_starts),
      static_cast<long long>(stats.warm_starts),
      static_cast<long long>(stats.sandboxes_created),
      static_cast<long long>(stats.active_peak),
      static_cast<long long>(stats.warm_pool_peak));

  std::vector<double> fleet_series;
  fleet_series.reserve(report.timeline.size());
  for (const auto& sample : report.timeline) {
    fleet_series.push_back(static_cast<double>(sample.fleet_active));
  }
  std::printf("\nfleet active executions over time (burst-then-ramp):\n");
  std::fputs(platform::RenderAsciiSeries(fleet_series, 8, 100).c_str(),
             stdout);

  Json doc = report.ToJson();
  Json fleet = Json::Object();
  fleet["invocations"] = stats.invocations;
  fleet["cold_starts"] = stats.cold_starts;
  fleet["warm_starts"] = stats.warm_starts;
  fleet["throttles"] = stats.throttles;
  fleet["sandboxes_created"] = stats.sandboxes_created;
  fleet["active_peak"] = stats.active_peak;
  fleet["warm_pool_peak"] = stats.warm_pool_peak;
  fleet["reaped_sandboxes"] = stats.reaped_sandboxes;
  doc["fleet"] = std::move(fleet);
  Json host = Json::Object();
  host["peak_rss_mib"] =
      static_cast<double>(bench::PeakRssBytes()) / static_cast<double>(kMiB);
  doc["host"] = std::move(host);
  SKYRISE_CHECK_OK(platform::WriteResultFile("BENCH_serving.json", doc));
  std::printf("\nwrote BENCH_serving.json\n");

  if (argc == 3 && std::string(argv[1]) == "--check-baseline") {
    const int failures = CheckBaseline(argv[2], doc);
    if (failures > 0) {
      std::printf("\n%d baseline gate(s) FAILED\n", failures);
      return 1;
    }
    std::printf("all baseline gates passed\n");
  }
  return 0;
}
