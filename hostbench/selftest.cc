/// Self-tests of the benchmark's instrumentation, run by run.py before every
/// measurement (and runnable on their own):
///
///   1. A wrapped ObjectStore forwards exactly: a small mixed GET/PUT
///      scenario through RetryClient, with and without TimedStore in
///      between, gives byte-identical outcomes, event counts and stats.
///   2. A wrapped LambdaPlatform forwards exactly: two suite queries on the
///      engine, with and without TimedStore, TimedPlatform and wrapped
///      handlers, give byte-identical responses, results, fleet stats and
///      simulated-clock traces.
///   3. Self times of nested scopes add up to the enclosing interval, for
///      host time and for allocations.
///
/// Prints one line per test and exits non-zero if any fails.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "host_trace.h"
#include "storage/object_store.h"
#include "storage/queue_service.h"
#include "storage/retry_client.h"
#include "wrappers.h"

namespace {

namespace sky = skyrise;
using hostbench::HostTrace;
using hostbench::Layer;
using hostbench::Scope;

int failures = 0;

void Report(const char* name, bool ok, const std::string& detail = "") {
  std::printf("%s %s%s%s\n", ok ? "ok" : "FAIL", name,
              detail.empty() ? "" : ": ", detail.c_str());
  if (!ok) ++failures;
}

/// Issues a fixed mix of 1 KiB GETs and PUTs plus a few 4 MiB reads that
/// stream through the fabric, from 40 closed-loop slots for 3 simulated
/// seconds, and returns a log of every outcome.
std::string StoreScenario(bool wrapped) {
  sky::sim::SimEnvironment env(77);
  sky::net::Fabric fabric;
  sky::net::FabricDriver fabric_driver(&env, &fabric);
  sky::storage::ObjectStore bucket(
      &env, sky::storage::ObjectStore::StandardOptions());
  for (int i = 0; i < 64; ++i) {
    SKYRISE_CHECK_OK(bucket.Insert(sky::StrFormat("small/%02d", i),
                                   sky::storage::Blob::Synthetic(sky::kKiB)));
    SKYRISE_CHECK_OK(bucket.Insert(
        sky::StrFormat("large/%02d", i),
        sky::storage::Blob::Synthetic(4 * sky::kMiB)));
  }
  HostTrace trace;
  hostbench::TimedStore timed(&bucket, &trace, Layer::kStorageRetry);
  sky::storage::StorageService* service =
      wrapped ? static_cast<sky::storage::StorageService*>(&timed) : &bucket;
  sky::storage::RetryClient::Options retry;
  retry.timeout_per_mib = sky::Millis(100);
  retry.max_attempts = 16;
  retry.backoff_cap = sky::Seconds(1);
  sky::storage::RetryClient client(&env, service, retry);
  sky::net::LambdaNic nic;
  sky::storage::ClientContext streamed;
  streamed.nic = &nic;
  streamed.fabric = &fabric_driver;

  std::string log;
  sky::Rng rng(5);
  int64_t next = 0;
  const sky::SimTime stop = sky::Seconds(3);
  std::function<void()> issue = [&] {
    if (env.now() >= stop) return;
    const int64_t id = next++;
    auto note = [&, id](const sky::Status& status, int64_t bytes) {
      log += sky::StrFormat("%lld %d %lld %lld\n", static_cast<long long>(id),
                            static_cast<int>(status.code()),
                            static_cast<long long>(env.now()),
                            static_cast<long long>(bytes));
      issue();
    };
    const double pick = rng.NextDouble();
    const std::string index =
        sky::StrFormat("%02d", static_cast<int>(id % 64));
    if (pick < 0.3) {
      client.Put("small/w" + std::to_string(id),
                 sky::storage::Blob::Synthetic(sky::kKiB), {},
                 [note](sky::Status s) { note(s, 0); });
    } else if (pick < 0.35) {
      client.GetRange("large/" + index, 0, 4 * sky::kMiB, streamed,
                      [note](sky::Result<sky::storage::Blob> r) {
                        note(r.status(), r.ok() ? r->size() : 0);
                      });
    } else {
      client.Get("small/" + index, {},
                 [note](sky::Result<sky::storage::Blob> r) {
                   note(r.status(), r.ok() ? r->size() : 0);
                 });
    }
  };
  for (int slot = 0; slot < 40; ++slot) issue();
  env.Run();
  const auto& stats = client.stats();
  log += sky::StrFormat(
      "events %lld attempts %lld throttles %lld timeouts %lld\n",
      static_cast<long long>(env.events_processed()),
      static_cast<long long>(stats.attempts),
      static_cast<long long>(stats.throttles),
      static_cast<long long>(stats.timeouts));
  if (wrapped && timed.counters().calls != stats.attempts) {
    log += "wrapper missed calls\n";
  }
  return log;
}

/// Runs TPC-H Q6 and Q12 on Lambda and returns their responses, results,
/// fleet stats, event count and simulated-clock trace.
std::string EngineScenario(bool wrapped) {
  constexpr int kParts = 3;
  sky::sim::SimEnvironment env(2024);
  sky::net::Fabric fabric;
  sky::net::FabricDriver fabric_driver(&env, &fabric);
  sky::storage::ObjectStore store(
      &env, sky::storage::ObjectStore::StandardOptions());
  sky::storage::QueueService queue(&env);
  sky::format::SyntheticFileCatalog catalog;
  sky::pricing::CostMeter meter;
  sky::obs::Tracer tracer(&env);
  sky::obs::MetricsRegistry metrics;
  sky::datagen::TpchConfig tpch;
  tpch.scale_factor = 0.001;
  SKYRISE_CHECK_OK(sky::datagen::UploadDataset(
                       &store, "lineitem", sky::datagen::LineitemSchema(),
                       kParts,
                       [&](int p) {
                         return sky::datagen::GenerateLineitemPartition(
                             tpch, p, kParts);
                       })
                       .status());
  SKYRISE_CHECK_OK(sky::datagen::UploadDataset(
                       &store, "orders", sky::datagen::OrdersSchema(), kParts,
                       [&](int p) {
                         return sky::datagen::GenerateOrdersPartition(
                             tpch, p, kParts);
                       })
                       .status());

  HostTrace trace;
  hostbench::TimedStore timed_store(&store, &trace, Layer::kEngineCallback);
  sky::engine::EngineContext context;
  context.env = &env;
  context.table_store = wrapped
                            ? static_cast<sky::storage::StorageService*>(
                                  &timed_store)
                            : &store;
  context.shuffle_store = context.table_store;
  context.catalog = &catalog;
  context.queue = &queue;
  context.meter = &meter;
  context.partitions_per_worker = 1;
  sky::engine::QueryEngine engine(std::move(context));
  sky::faas::FunctionRegistry deployed;
  sky::faas::FunctionRegistry registry;
  SKYRISE_CHECK_OK(engine.Deploy(wrapped ? &deployed : &registry));
  sky::faas::LambdaPlatform lambda(&env, &fabric_driver, &registry,
                                   sky::faas::LambdaPlatform::Options());
  hostbench::TimedPlatform timed_lambda(&lambda, &env, &trace);
  sky::faas::ComputePlatform* platform = &lambda;
  if (wrapped) {
    SKYRISE_CHECK_OK(timed_lambda.WrapHandlers(deployed, &registry));
    platform = &timed_lambda;
  }
  platform->set_observer(&tracer, &metrics);

  sky::engine::QuerySuiteOptions suite;
  suite.join_partitions = kParts;
  engine.context()->worker_platform = platform;
  std::string log;
  const std::vector<std::pair<std::string, sky::engine::QueryPlan>> queries = {
      {"q6", sky::engine::BuildTpchQ6()},
      {"q12", sky::engine::BuildTpchQ12(suite)}};
  for (const auto& [id, plan] : queries) {
    sky::obs::SpanId root = tracer.Begin("bench", "query " + id, "bench");
    sky::Json payload = sky::engine::CoordinatorPayload(plan, id, 0);
    payload["trace_parent"] = root;
    platform->Invoke(sky::engine::kCoordinatorFunction, std::move(payload),
                     [&log, &tracer, root, id = id](sky::Result<sky::Json> r) {
                       tracer.End(root);
                       log += id + " " +
                              (r.ok() ? r->Dump() : r.status().ToString()) +
                              "\n";
                     });
  }
  env.Run();
  for (const auto& [id, plan] : queries) {
    auto blob = store.Peek(sky::engine::ResultKey(id));
    log += id + " result " +
           (blob.ok() && !blob->is_synthetic() ? blob->data() : "missing") +
           "\n";
  }
  const auto& stats = lambda.stats();
  log += sky::StrFormat("events %lld invocations %lld cold %lld\n",
                        static_cast<long long>(env.events_processed()),
                        static_cast<long long>(stats.invocations),
                        static_cast<long long>(stats.cold_starts));
  log += tracer.DumpChromeTrace();
  if (wrapped && (timed_lambda.counters().queries != 2 ||
                  timed_store.counters().calls == 0)) {
    log += "wrapper missed calls\n";
  }
  return log;
}

void BusyWait(int64_t ns) {
  const int64_t until = hostbench::NowNs() + ns;
  while (hostbench::NowNs() < until) {
  }
}

/// Nested scopes across several layers, with allocations at each level.
void SelfTimesAddUp() {
  HostTrace trace;
  std::vector<std::unique_ptr<int>> sink;
  {
    Scope root(&trace, Layer::kDrive, 0);
    BusyWait(200000);
    sink.push_back(std::make_unique<int>(1));
    for (int i = 0; i < 3; ++i) {
      Scope call(&trace, Layer::kStorageCall, static_cast<uint64_t>(i));
      BusyWait(100000);
      sink.push_back(std::make_unique<int>(2));
      {
        Scope completion(&trace, Layer::kStorageRetry,
                         static_cast<uint64_t>(i));
        BusyWait(50000);
        Scope client(&trace, Layer::kClient, static_cast<uint64_t>(i));
        BusyWait(50000);
        sink.push_back(std::make_unique<int>(3));
        sink.push_back(std::make_unique<int>(4));
      }
    }
  }
  const auto& spans = trace.spans();
  const HostTrace::Span& root = spans.front();
  int64_t self_sum = 0;
  uint64_t alloc_sum = 0;
  int64_t calls = 0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    self_sum += trace.totals(static_cast<Layer>(l)).self_ns;
    alloc_sum += trace.totals(static_cast<Layer>(l)).self_allocs;
    calls += trace.totals(static_cast<Layer>(l)).calls;
  }
  // Each kept span's self time is its interval minus its children's.
  bool spans_ok = spans.size() == 10 && trace.idle();
  for (size_t i = 0; spans_ok && i < spans.size(); ++i) {
    int64_t children = 0;
    for (const auto& other : spans) {
      if (other.parent == static_cast<int64_t>(i)) {
        children += other.end_ns - other.start_ns;
      }
    }
    spans_ok = spans[i].self_ns == spans[i].end_ns - spans[i].start_ns -
                                        children &&
               spans[i].self_ns >= 0;
  }
  Report("self times add up to the enclosing interval",
         spans_ok && calls == 10 &&
             self_sum == root.end_ns - root.start_ns &&
             trace.totals(Layer::kClient).self_ns >= 3 * 50000 &&
             alloc_sum >= 10 && trace.totals(Layer::kClient).self_allocs >= 6,
         sky::StrFormat("sum %lld root %lld allocs %llu",
                        static_cast<long long>(self_sum),
                        static_cast<long long>(root.end_ns - root.start_ns),
                        static_cast<unsigned long long>(alloc_sum)));
}

}  // namespace

int main() {
  const std::string store_plain = StoreScenario(false);
  const std::string store_wrapped = StoreScenario(true);
  Report("wrapped ObjectStore forwards exactly",
         store_plain == store_wrapped && store_plain.size() > 1000,
         sky::StrFormat("%zu vs %zu bytes of outcomes", store_plain.size(),
                        store_wrapped.size()));
  const std::string engine_plain = EngineScenario(false);
  const std::string engine_wrapped = EngineScenario(true);
  Report("wrapped LambdaPlatform forwards exactly",
         engine_plain == engine_wrapped &&
             engine_plain.find("missing") == std::string::npos,
         sky::StrFormat("%zu vs %zu bytes of outcomes", engine_plain.size(),
                        engine_wrapped.size()));
  SelfTimesAddUp();
  return failures == 0 ? 0 : 1;
}
