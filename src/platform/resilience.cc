#include "platform/resilience.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/string_util.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "storage/object_store.h"

namespace skyrise::platform {

namespace {

/// The chaos-e2e aggressive profile with every probability scaled by
/// `intensity` (clamped to a valid probability). Intensity 0 disables
/// injection entirely — the per-seed fault-free baseline.
sim::FaultInjector::Profile ScaledProfile(double intensity) {
  if (intensity <= 0) return sim::FaultInjector::Disabled();
  auto p = [intensity](double base) {
    return std::clamp(base * intensity, 0.0, 0.95);
  };
  sim::FaultInjector::Profile profile;
  profile.storage_read_error_probability = p(0.03);
  profile.storage_write_error_probability = p(0.03);
  profile.storage_burst_error_probability = p(0.4);
  profile.storage_burst_duration = Seconds(1);
  profile.storage_burst_interval = Seconds(15);
  profile.network_blip_probability = p(0.05);
  profile.network_blip_max = Millis(100);
  profile.function_crash_probability = p(0.20);
  profile.sandbox_kill_probability = p(0.05);
  profile.crash_delay_max = Millis(400);
  profile.crash_exempt_functions = {engine::kCoordinatorFunction};
  profile.invoke_delay_probability = p(0.1);
  profile.invoke_delay_max = Millis(300);
  return profile;
}

/// One fully wired engine deployment with the robustness features armed.
/// Identical seeds and intensities reproduce identical stacks.
struct Stack {
  Stack(uint64_t seed, double intensity, const ChaosSweepConfig& config)
      : env(seed),
        fabric_driver(&env, &fabric),
        store(&env, storage::ObjectStore::StandardOptions()),
        queue(&env),
        injector(&env, ScaledProfile(intensity)),
        tracer(&env) {
    datagen::TpchConfig tpch;
    tpch.scale_factor = config.tpch_scale_factor;
    SKYRISE_CHECK_OK(datagen::UploadDataset(
                         &store, "lineitem", datagen::LineitemSchema(),
                         config.partitions,
                         [&](int p) {
                           return datagen::GenerateLineitemPartition(
                               tpch, p, config.partitions);
                         })
                         .status());
    SKYRISE_CHECK_OK(datagen::UploadDataset(
                         &store, "orders", datagen::OrdersSchema(),
                         config.partitions,
                         [&](int p) {
                           return datagen::GenerateOrdersPartition(
                               tpch, p, config.partitions);
                         })
                         .status());

    if (config.enable_breakers) {
      CircuitBreaker::Options storage_options;
      storage_options.name = "storage";
      storage_breaker = std::make_unique<CircuitBreaker>(storage_options);
      CircuitBreaker::Options invoke_options;
      invoke_options.name = "invoke";
      invoke_breaker = std::make_unique<CircuitBreaker>(invoke_options);
    }

    engine::EngineContext context;
    context.env = &env;
    context.table_store = &store;
    context.shuffle_store = &store;
    context.catalog = &catalog;
    context.queue = &queue;
    context.meter = &meter;
    context.partitions_per_worker = 2;
    context.worker_max_attempts = config.worker_max_attempts;
    context.query_deadline = config.query_deadline;
    context.retry_budget_tokens = config.retry_budget_tokens;
    context.retry_budget_refund = config.retry_budget_refund;
    context.storage_breaker = storage_breaker.get();
    context.invoke_breaker = invoke_breaker.get();
    engine = std::make_unique<engine::QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine->Deploy(&registry));

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda = std::make_unique<faas::LambdaPlatform>(
        &env, &fabric_driver, &registry, lambda_options);
    lambda->set_observer(&tracer, &metrics);
    store.set_fault_injector(&injector);
    lambda->set_fault_injector(&injector);
  }

  struct RunOutcome {
    bool settled = false;  ///< Callback fired inside the horizon.
    Result<engine::QueryResponse> result = Status::Internal("did not settle");
    int64_t requests = 0;  ///< Storage requests metered during this query.
  };

  RunOutcome Run(const engine::QueryPlan& plan, const std::string& id,
                 SimDuration horizon) {
    RunOutcome outcome;
    const int64_t requests_before = meter.TotalRequests();
    engine->Run(lambda.get(), plan, id,
                [&outcome](Result<engine::QueryResponse> r) {
                  outcome.settled = true;
                  outcome.result = std::move(r);
                });
    // The horizon also drains zombie executions (deadline-killed or crashed
    // workers), so every span is closed before the leak check.
    env.RunUntil(env.now() + horizon);
    outcome.requests = meter.TotalRequests() - requests_before;
    return outcome;
  }

  /// Raw result object bytes (control-plane read, no fault injection).
  std::string ResultBytes(const std::string& id) {
    auto blob = store.Peek(engine::ResultKey(id));
    if (!blob.ok()) return std::string();
    if (blob->is_synthetic()) return std::string();
    return std::string(blob->bytes());
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
  std::unique_ptr<CircuitBreaker> storage_breaker;
  std::unique_ptr<CircuitBreaker> invoke_breaker;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<faas::LambdaPlatform> lambda;
};

struct Baseline {
  std::string bytes;
  int64_t requests = 0;
};

}  // namespace

ChaosSweepOutcome RunChaosSweep(const ChaosSweepConfig& config) {
  ChaosSweepOutcome sweep;
  auto violate = [&sweep](std::string what) {
    sweep.violations.push_back(std::move(what));
  };

  engine::QuerySuiteOptions suite_options;
  suite_options.join_partitions = config.join_partitions;
  // Q6: scan-heavy, join-free. Q12: multi-stage partitioned shuffle join —
  // retries across shuffle writers and readers.
  const std::map<std::string, engine::QueryPlan> queries = {
      {"q6", engine::BuildTpchQ6()},
      {"q12", engine::BuildTpchQ12(suite_options)},
  };

  // Per-seed fault-free references, filled by the intensity-0 cells. The
  // intensity grid is traversed in ascending order so baselines exist
  // before any chaos cell needs them.
  std::map<std::pair<uint64_t, std::string>, Baseline> baselines;
  std::vector<double> intensities = config.intensities;
  std::sort(intensities.begin(), intensities.end());
  if (intensities.empty() || intensities.front() > 0) {
    intensities.insert(intensities.begin(), 0.0);
  }

  Json cells = Json::Array();
  for (const uint64_t seed : config.seeds) {
    for (const double intensity : intensities) {
      Stack stack(seed, intensity, config);
      for (const auto& [name, plan] : queries) {
        const std::string cell_id = StrFormat(
            "seed=%llu intensity=%g query=%s",
            static_cast<unsigned long long>(seed), intensity, name.c_str());
        const std::string query_id =
            StrFormat("%s-i%g", name.c_str(), intensity);
        auto outcome = stack.Run(plan, query_id, config.horizon);

        Json cell = Json::Object();
        cell["seed"] = static_cast<int64_t>(seed);
        cell["intensity"] = intensity;
        cell["query"] = name;
        cell["settled"] = outcome.settled;
        cell["requests"] = outcome.requests;

        // Invariant 1: no hang.
        if (!outcome.settled) {
          violate(cell_id + ": query did not settle inside the horizon");
        }
        const bool completed = outcome.settled && outcome.result.ok();
        cell["completed"] = completed;

        if (intensity <= 0) {
          // Baseline cell: fault-free runs must complete.
          if (!completed) {
            violate(cell_id + ": fault-free baseline failed: " +
                    outcome.result.status().ToString());
          }
          baselines[{seed, name}] =
              Baseline{stack.ResultBytes(query_id), outcome.requests};
        }
        const auto baseline_it = baselines.find({seed, name});

        if (completed) {
          const engine::QueryResponse& response = *outcome.result;
          cell["runtime_ms"] = response.runtime_ms;
          cell["worker_retries"] = response.worker_retries;
          cell["worker_errors"] = response.worker_errors;
          cell["degraded_stages"] = response.degraded_stages;
          // Invariant 2: bit-identical results.
          const std::string bytes = stack.ResultBytes(query_id);
          const bool identical = baseline_it != baselines.end() &&
                                 !baseline_it->second.bytes.empty() &&
                                 bytes == baseline_it->second.bytes;
          cell["identical"] = identical;
          if (!identical) {
            violate(cell_id + ": completed with result bytes differing from "
                              "the fault-free baseline");
          }
          // Invariant 5: budget conservation (granted <= initial + refunds).
          if (response.retry_budget_initial > 0) {
            Json budget = Json::Object();
            budget["initial"] = response.retry_budget_initial;
            budget["remaining"] = response.retry_budget_remaining;
            budget["acquired"] = response.retry_budget_acquired;
            budget["denied"] = response.retry_budget_denied;
            budget["refunded"] =
                response.raw.Get("retry_budget").GetDouble("refunded");
            cell["retry_budget"] = budget;
            const double cap = response.retry_budget_initial +
                               budget.GetDouble("refunded") + 1e-9;
            if (static_cast<double>(response.retry_budget_acquired) > cap) {
              violate(cell_id +
                      StrFormat(": budget conservation broken: %lld retries "
                                "granted from %g tokens",
                                static_cast<long long>(
                                    response.retry_budget_acquired),
                                cap));
            }
          }
        } else if (outcome.settled) {
          const Status& status = outcome.result.status();
          // Invariant 3: failures are typed sheds, not raw errors.
          const bool typed =
              status.IsDeadlineExceeded() || status.IsResourceExhausted();
          cell["status"] = status.ToString();
          cell["typed"] = typed;
          if (!typed) {
            violate(cell_id + ": untyped failure: " + status.ToString());
          }
        }

        // Invariant 4: bounded attempt amplification vs the baseline.
        if (intensity > 0 && baseline_it != baselines.end() &&
            baseline_it->second.requests > 0) {
          const double amplification =
              static_cast<double>(outcome.requests) /
              static_cast<double>(baseline_it->second.requests);
          cell["amplification"] = amplification;
          if (amplification > config.amplification_limit) {
            violate(cell_id +
                    StrFormat(": request amplification %.2f exceeds limit "
                              "%.2f",
                              amplification, config.amplification_limit));
          }
        }
        cells.Append(std::move(cell));
      }

      // Invariant 6: zero span leaks after the stack drained.
      Status trace_ok = stack.tracer.Validate();
      if (!trace_ok.ok()) {
        violate(StrFormat("seed=%llu intensity=%g: trace invalid: ",
                          static_cast<unsigned long long>(seed), intensity) +
                trace_ok.ToString());
      }
      if (stack.tracer.open_spans() != 0) {
        violate(StrFormat("seed=%llu intensity=%g: %lld spans left open",
                          static_cast<unsigned long long>(seed), intensity,
                          static_cast<long long>(stack.tracer.open_spans())));
      }
      // Invariant 7: per-span costs reconcile bitwise with the meters.
      if (stack.tracer.attributed_usd("storage") != stack.meter.StorageUsd()) {
        violate(StrFormat(
            "seed=%llu intensity=%g: storage cost attribution diverged",
            static_cast<unsigned long long>(seed), intensity));
      }
      if (stack.tracer.attributed_usd("faas") !=
          stack.lambda->meter()->ComputeUsd()) {
        violate(StrFormat(
            "seed=%llu intensity=%g: faas cost attribution diverged",
            static_cast<unsigned long long>(seed), intensity));
      }
    }
  }

  Json report = Json::Object();
  Json config_json = Json::Object();
  Json intensity_list = Json::Array();
  for (double i : intensities) intensity_list.Append(Json(i));
  Json seed_list = Json::Array();
  for (uint64_t s : config.seeds) {
    seed_list.Append(Json(static_cast<int64_t>(s)));
  }
  config_json["intensities"] = std::move(intensity_list);
  config_json["seeds"] = std::move(seed_list);
  config_json["partitions"] = config.partitions;
  config_json["tpch_scale_factor"] = config.tpch_scale_factor;
  config_json["query_deadline_us"] = config.query_deadline;
  config_json["retry_budget_tokens"] = config.retry_budget_tokens;
  config_json["breakers"] = config.enable_breakers;
  config_json["amplification_limit"] = config.amplification_limit;
  report["bench"] = "resilience";
  report["config"] = std::move(config_json);
  report["cells"] = std::move(cells);
  Json violation_list = Json::Array();
  for (const auto& v : sweep.violations) violation_list.Append(Json(v));
  report["violations"] = std::move(violation_list);
  sweep.ok = sweep.violations.empty();
  report["ok"] = sweep.ok;
  sweep.report = std::move(report);
  return sweep;
}

}  // namespace skyrise::platform
