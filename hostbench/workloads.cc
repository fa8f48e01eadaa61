#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/string_util.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "engine/reference.h"
#include "net/instance_specs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/frontend.h"
#include "storage/object_store.h"
#include "storage/queue_service.h"
#include "storage/retry_client.h"
#include "wrappers.h"

namespace hostbench {

namespace {

using sky::SimDuration;
using sky::SimTime;

/// FNV-1a over the simulated outputs of a repetition.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Bytes(&bits, sizeof bits);
  }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Derives an independent input seed for one generator from the run seed.
uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  return sky::Rng(seed).Fork(stream).NextUint64();
}

double HostSeconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Simulated length of the slices that host time is measured over. Every
/// workload's arrival phase gives at least 1,200 of them per repetition, so
/// at least ten lie beyond each repetition's p99.
constexpr SimDuration kSlice = sky::Millis(50);

/// Runs `begin` and then steps `env` until `done()` holds or the queue
/// drains, inside the root drive scope. The first `sliced` simulated time is
/// cut into kSlice-long slices; each slice's host milliseconds per simulated
/// second is appended to `slices`. A slice is closed by the first event at or
/// past its end, so that event's host time counts towards it. Returns the
/// host seconds taken.
template <typename Begin, typename Done>
double Drive(sky::sim::SimEnvironment* env, SimDuration sliced, Begin begin,
             Done done, std::vector<double>* slices, HostTrace* trace) {
  const SimTime end = env->now() + sliced;
  SimTime boundary = env->now() + kSlice;
  const double ms_per_ns_per_sim_s = 1e-6 / sky::ToSeconds(kSlice);
  const int64_t start = NowNs();
  int64_t mark = start;
  {
    Scope root(trace, Layer::kDrive, 0);
    begin();
    while (!done() && env->Step()) {
      if (env->now() < boundary || boundary > end) continue;
      const int64_t now = NowNs();
      slices->push_back(static_cast<double>(now - mark) * ms_per_ns_per_sim_s);
      mark = now;
      // An event that jumps past several boundaries leaves the skipped
      // slices empty of work.
      for (boundary += kSlice; env->now() >= boundary && boundary <= end;
           boundary += kSlice) {
        slices->push_back(0.0);
      }
    }
  }
  return HostSeconds(NowNs() - start);
}

/// Simulator counters that every repetition reports and digests.
void RecordSim(const sky::sim::SimEnvironment& env, RepResult* rep,
               Digest* digest) {
  const sky::sim::EventPoolStats stats = env.pool_stats();
  rep->events = env.events_processed();
  rep->counts["sim.events"] = static_cast<double>(rep->events);
  rep->counts["sim.scheduled"] = static_cast<double>(stats.scheduled);
  rep->counts["sim.cancelled_ratio"] =
      stats.scheduled == 0 ? 0
                           : static_cast<double>(stats.cancelled_dropped) /
                                 static_cast<double>(stats.scheduled);
  rep->counts["sim.heap_callbacks"] =
      static_cast<double>(stats.heap_callbacks);
  rep->counts["sim.calendar_resizes"] =
      static_cast<double>(stats.calendar_resizes);
  rep->counts["sim.events_per_sim_s"] =
      rep->sim_s > 0 ? static_cast<double>(rep->events) / rep->sim_s : 0;
  // heap_callbacks is left out: wrapped callbacks are larger and may spill
  // where the unwrapped ones do not, without changing what the run does.
  digest->Int(rep->events);
  digest->Int(static_cast<int64_t>(stats.scheduled));
  digest->Int(static_cast<int64_t>(stats.fired));
  digest->Int(static_cast<int64_t>(stats.cancelled_dropped));
}

void RecordStore(const TimedStore* store, RepResult* rep) {
  if (store == nullptr) return;
  const StoreCounters& c = store->counters();
  rep->counts["storage.calls"] = static_cast<double>(c.calls);
  rep->counts["storage.failed"] = static_cast<double>(c.failed);
  rep->counts["storage.ok_ratio"] =
      c.completions == 0 ? 0
                         : static_cast<double>(c.completions - c.failed) /
                               static_cast<double>(c.completions);
  rep->counts["storage.read_bytes"] = static_cast<double>(c.read_bytes);
  rep->counts["storage.write_bytes"] = static_cast<double>(c.write_bytes);
  rep->counts["net.transfers"] = static_cast<double>(c.transfers);
  rep->counts["net.bytes"] = static_cast<double>(c.transfer_bytes);
  rep->counts["engine.scan_bytes"] = static_cast<double>(c.scan_bytes);
  rep->counts["engine.shuffle_bytes"] = static_cast<double>(c.shuffle_bytes);
}

void Fail(RepResult* rep, std::string message) {
  ++rep->failed;
  rep->errors.push_back(std::move(message));
}

// ---------------------------------------------------------------------------
// serving: three tenants on one shared Lambda fleet (Fig. 1 burst-then-ramp).

constexpr int kServingPartitions = 4;
constexpr SimDuration kServingHorizon = sky::Seconds(90);
/// The traffic, and every other draw of the simulation, comes from this
/// fixed seed (bench/serving's); the run seed generates the tables. Random
/// traffic would change the work per run by tens of percent from seed to
/// seed: the bursty tenant's exponential on/off phases alone moved the
/// query count between 459 and 896 over five seeds.
constexpr uint64_t kServingSimSeed = 2024;

/// The bench/serving population: a steady interactive tenant with double
/// weight, a steady analytics tenant, and a batch tenant whose 10x on/off
/// bursts give the shared fleet its step load.
std::vector<sky::serving::TenantSpec> ServingPopulation() {
  using sky::serving::ArrivalSpec;
  using sky::serving::TenantSpec;
  using sky::serving::WorkloadMix;
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
  batch.arrival = ArrivalSpec::Bursty(1.0, 10.0, sky::Seconds(10),
                                      sky::Seconds(40));
  batch.mix = WorkloadMix::Uniform();
  return {interactive, analytics, batch};
}

bool HasColumns(const sky::data::Chunk& chunk,
                std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (chunk.schema().FieldIndex(name) < 0) return false;
  }
  return true;
}

bool Near(double value, double reference) {
  return std::fabs(value - reference) <=
         1e-6 * std::max(1.0, std::fabs(reference));
}

struct ServingBed {
  ServingBed()
      : env(kServingSimSeed),
        fabric_driver(&env, &fabric),
        store(&env, sky::storage::ObjectStore::StandardOptions()),
        queue(&env),
        tracer(&env) {}

  sky::sim::SimEnvironment env;
  sky::net::Fabric fabric;
  sky::net::FabricDriver fabric_driver;
  sky::storage::ObjectStore store;
  sky::storage::QueueService queue;
  sky::format::SyntheticFileCatalog catalog;
  sky::pricing::CostMeter meter;
  sky::obs::Tracer tracer;
  sky::obs::MetricsRegistry metrics;
  sky::faas::FunctionRegistry deployed;  ///< Unwrapped handlers (traced).
  sky::faas::FunctionRegistry registry;  ///< What the platform runs.
  std::unique_ptr<TimedStore> timed_store;
  std::unique_ptr<sky::engine::QueryEngine> engine;
  std::unique_ptr<sky::faas::LambdaPlatform> lambda;
  std::unique_ptr<TimedPlatform> timed_lambda;
  std::unique_ptr<sky::serving::ServingFrontend> frontend;
};

class ServingWorkload : public Workload {
 public:
  explicit ServingWorkload(const RunConfig& config) : config_(config) {
    tpch_.scale_factor = 0.002;
    tpch_.seed = SeedFor(config.seed, 1);
    bb_.scale_factor = 0.01;
    bb_.seed = SeedFor(config.seed, 2);
    suite_.join_partitions = kServingPartitions;
    const sky::data::Chunk lineitem = WholeTable(
        [&](int p) {
          return sky::datagen::GenerateLineitemPartition(tpch_, p,
                                                         kServingPartitions);
        },
        kServingPartitions);
    const sky::data::Chunk orders = WholeTable(
        [&](int p) {
          return sky::datagen::GenerateOrdersPartition(tpch_, p,
                                                       kServingPartitions);
        },
        kServingPartitions);
    const sky::data::Chunk clicks = WholeTable(
        [&](int p) {
          return sky::datagen::GenerateClickstreamsPartition(
              bb_, p, kServingPartitions);
        },
        kServingPartitions);
    q1_ = sky::engine::ReferenceQ1(lineitem);
    q6_ = sky::engine::ReferenceQ6(lineitem);
    q12_ = sky::engine::ReferenceQ12(lineitem, orders);
    bbq3_ = sky::engine::ReferenceBbQ3(
        clicks, sky::datagen::GenerateItemTable(bb_), suite_);
  }

  RepResult RunRep(HostTrace* trace) override;

 private:
  static sky::data::Chunk WholeTable(
      const std::function<sky::data::Chunk(int)>& generate, int partitions) {
    sky::data::Chunk all = generate(0);
    for (int p = 1; p < partitions; ++p) all.Append(generate(p));
    return all;
  }

  int64_t Upload(sky::storage::StorageService* store) const;
  void Wire(ServingBed* bed, HostTrace* trace) const;
  /// Empty when `result` equals the reference answer of its query class
  /// (recognised by its columns); ad-hoc results have no reference.
  std::string CheckResult(const sky::data::Chunk& result) const;

  RunConfig config_;
  sky::datagen::TpchConfig tpch_;
  sky::datagen::TpcxBbConfig bb_;
  sky::engine::QuerySuiteOptions suite_;
  std::vector<sky::engine::Q1Group> q1_;
  sky::engine::Q6Reference q6_;
  std::vector<sky::engine::Q12Group> q12_;
  std::vector<sky::engine::BbQ3Row> bbq3_;
};

int64_t ServingWorkload::Upload(sky::storage::StorageService* store) const {
  using namespace sky::datagen;
  const int parts = kServingPartitions;
  int64_t bytes = 0;
  auto add = [&bytes](sky::Result<DatasetInfo> info) {
    SKYRISE_CHECK_OK(info.status());
    bytes += info->total_bytes;
  };
  add(UploadDataset(store, "lineitem", LineitemSchema(), parts, [&](int p) {
    return GenerateLineitemPartition(tpch_, p, parts);
  }));
  add(UploadDataset(store, "orders", OrdersSchema(), parts, [&](int p) {
    return GenerateOrdersPartition(tpch_, p, parts);
  }));
  add(UploadDataset(store, "clickstreams", ClickstreamsSchema(), parts,
                    [&](int p) {
                      return GenerateClickstreamsPartition(bb_, p, parts);
                    }));
  add(UploadDataset(store, "item", ItemSchema(), 1,
                    [&](int) { return GenerateItemTable(bb_); }));
  return bytes;
}

void ServingWorkload::Wire(ServingBed* bed, HostTrace* trace) const {
  sky::storage::StorageService* store = &bed->store;
  if (trace != nullptr) {
    bed->timed_store = std::make_unique<TimedStore>(&bed->store, trace,
                                                    Layer::kEngineCallback);
    store = bed->timed_store.get();
  }
  sky::engine::EngineContext context;
  context.env = &bed->env;
  context.table_store = store;
  context.shuffle_store = store;
  context.catalog = &bed->catalog;
  context.queue = &bed->queue;
  context.meter = &bed->meter;
  context.partitions_per_worker = 2;
  context.query_deadline = sky::Minutes(30);
  bed->engine = std::make_unique<sky::engine::QueryEngine>(std::move(context));
  SKYRISE_CHECK_OK(bed->engine->Deploy(trace != nullptr ? &bed->deployed
                                                        : &bed->registry));

  sky::faas::LambdaPlatform::Options lambda_options;
  lambda_options.account_concurrency = 10000;
  bed->lambda = std::make_unique<sky::faas::LambdaPlatform>(
      &bed->env, &bed->fabric_driver, &bed->registry, lambda_options);
  sky::faas::ComputePlatform* platform = bed->lambda.get();
  if (trace != nullptr) {
    bed->timed_lambda =
        std::make_unique<TimedPlatform>(bed->lambda.get(), &bed->env, trace);
    SKYRISE_CHECK_OK(
        bed->timed_lambda->WrapHandlers(bed->deployed, &bed->registry));
    platform = bed->timed_lambda.get();
  }
  sky::obs::Tracer* tracer = config_.obs ? &bed->tracer : nullptr;
  sky::obs::MetricsRegistry* metrics = config_.obs ? &bed->metrics : nullptr;
  if (config_.obs) bed->lambda->set_observer(tracer, metrics);

  sky::serving::ServingOptions options;
  options.horizon = kServingHorizon;
  options.global_max_concurrent = 24;
  options.suite = suite_;
  sky::faas::LambdaPlatform* lambda = bed->lambda.get();
  options.fleet_probe = [lambda] {
    return static_cast<int64_t>(lambda->active_executions());
  };
  bed->frontend = std::make_unique<sky::serving::ServingFrontend>(
      &bed->env, platform, bed->engine.get(), tracer, metrics, options,
      ServingPopulation());
}

std::string ServingWorkload::CheckResult(
    const sky::data::Chunk& result) const {
  const auto rows = static_cast<size_t>(result.rows());
  if (HasColumns(result, {"revenue"})) {
    if (rows != 1 ||
        !Near(result.column("revenue").doubles()[0], q6_.revenue)) {
      return "tpch-q6 differs from ReferenceQ6";
    }
    return "";
  }
  if (HasColumns(result, {"l_returnflag", "l_linestatus", "sum_qty",
                          "sum_base_price", "sum_disc_price", "sum_charge",
                          "avg_qty", "avg_price", "avg_disc",
                          "count_order"})) {
    if (rows != q1_.size()) return "tpch-q1 row count differs";
    for (size_t g = 0; g < rows; ++g) {
      const auto& ref = q1_[g];
      auto d = [&](const char* name) {
        return result.column(name).doubles()[g];
      };
      if (result.column("l_returnflag").strings()[g] != ref.returnflag ||
          result.column("l_linestatus").strings()[g] != ref.linestatus ||
          !Near(d("sum_qty"), ref.sum_qty) ||
          !Near(d("sum_base_price"), ref.sum_base_price) ||
          !Near(d("sum_disc_price"), ref.sum_disc_price) ||
          !Near(d("sum_charge"), ref.sum_charge) ||
          !Near(d("avg_qty"), ref.avg_qty) ||
          !Near(d("avg_price"), ref.avg_price) ||
          !Near(d("avg_disc"), ref.avg_disc) ||
          !Near(d("count_order"), static_cast<double>(ref.count_order))) {
        return sky::StrFormat("tpch-q1 group %zu differs from ReferenceQ1", g);
      }
    }
    return "";
  }
  if (HasColumns(result,
                 {"l_shipmode", "high_line_count", "low_line_count"})) {
    if (rows != q12_.size()) return "tpch-q12 row count differs";
    for (size_t g = 0; g < rows; ++g) {
      if (result.column("l_shipmode").strings()[g] != q12_[g].shipmode ||
          !Near(result.column("high_line_count").doubles()[g],
                static_cast<double>(q12_[g].high_line_count)) ||
          !Near(result.column("low_line_count").doubles()[g],
                static_cast<double>(q12_[g].low_line_count))) {
        return sky::StrFormat("tpch-q12 group %zu differs from ReferenceQ12",
                              g);
      }
    }
    return "";
  }
  if (HasColumns(result, {"item_sk", "views"})) {
    if (rows != bbq3_.size()) return "tpcxbb-q3 row count differs";
    for (size_t i = 0; i < rows; ++i) {
      if (result.column("item_sk").ints()[i] != bbq3_[i].item_sk ||
          !Near(result.column("views").doubles()[i],
                static_cast<double>(bbq3_[i].views))) {
        return sky::StrFormat("tpcxbb-q3 row %zu differs from ReferenceBbQ3",
                              i);
      }
    }
    return "";
  }
  if (HasColumns(result, {"metric"})) return "";
  return "result has no known query-class columns";
}

RepResult ServingWorkload::RunRep(HostTrace* trace) {
  RepResult rep;
  const int64_t setup_start = NowNs();
  ServingBed bed;
  const int64_t datagen_bytes = Upload(&bed.store);
  Wire(&bed, trace);
  rep.setup_s = HostSeconds(NowNs() - setup_start);

  sky::serving::ServingFrontend& frontend = *bed.frontend;
  const SimTime start = bed.env.now();
  const uint64_t allocs = AllocCount();
  rep.wall_s = Drive(
      &bed.env, kServingHorizon, [&] { frontend.Start(); },
      [&] { return frontend.Done(); }, &rep.slices, trace);
  rep.allocs = AllocCount() - allocs;
  rep.sim_s = sky::ToSeconds(bed.env.now() - start);
  rep.slice_s = sky::ToSeconds(kSlice);

  // Output checks and the digest of everything the simulation produced.
  Digest digest;
  RecordSim(bed.env, &rep, &digest);
  if (!frontend.Done()) Fail(&rep, "serving: frontend did not drain");
  const sky::serving::ServingReport report = frontend.Report();
  rep.attempted = report.total_arrivals;
  rep.failed += report.total_failed + report.total_shed;
  if (report.total_failed + report.total_shed > 0) {
    rep.errors.push_back(sky::StrFormat(
        "serving: %lld queries failed, %lld shed",
        static_cast<long long>(report.total_failed),
        static_cast<long long>(report.total_shed)));
  }
  digest.Str(report.ToJson().Dump());
  const auto& fleet = bed.lambda->stats();
  for (int64_t v : {fleet.invocations, fleet.cold_starts, fleet.warm_starts,
                    fleet.throttles, fleet.sandboxes_created,
                    fleet.active_peak, fleet.warm_pool_peak,
                    fleet.reaped_sandboxes, fleet.errors}) {
    digest.Int(v);
  }

  const std::vector<sky::storage::ObjectInfo> results =
      bed.store.List("results/");
  if (static_cast<int64_t>(results.size()) != report.total_completed) {
    Fail(&rep, sky::StrFormat("serving: %zu result objects for %lld "
                              "completed queries",
                              results.size(),
                              static_cast<long long>(report.total_completed)));
  }
  const std::string suffix = "/final.cof";
  for (const auto& object : results) {
    const std::string id = object.key.substr(
        8, object.key.size() - 8 - suffix.size());  // results/<id>/final.cof
    auto chunk = bed.engine->FetchResult(id);
    std::string mismatch =
        chunk.ok() ? CheckResult(*chunk) : chunk.status().ToString();
    if (!mismatch.empty()) Fail(&rep, "serving: " + id + ": " + mismatch);
    auto blob = bed.store.Peek(object.key);
    digest.Str(object.key);
    if (blob.ok() && !blob->is_synthetic()) digest.Str(blob->data());
  }

  if (config_.obs) {
    if (!bed.tracer.Validate().ok() || bed.tracer.open_spans() != 0) {
      Fail(&rep, "serving: tracer invalid or spans left open");
    }
    // Exact equality: the tracer adds the meters' deltas in their order.
    if (bed.tracer.attributed_usd("storage") != bed.meter.StorageUsd() ||
        bed.tracer.attributed_usd("faas") !=
            bed.lambda->meter()->ComputeUsd()) {
      Fail(&rep, "serving: span costs do not reconcile with the meters");
    }
    digest.Int(static_cast<int64_t>(bed.tracer.spans().size()));
    for (const auto& [bucket, usd] : bed.tracer.cost_buckets()) {
      digest.Str(bucket);
      digest.Double(usd);
    }
  }
  rep.digest = digest.value();

  rep.counts["datagen.bytes"] = static_cast<double>(datagen_bytes);
  rep.counts["serving.queries"] = static_cast<double>(report.total_completed);
  rep.counts["serving.shed"] = static_cast<double>(report.total_shed);
  rep.counts["obs.spans"] = static_cast<double>(bed.tracer.spans().size());
  rep.counts["storage.retries"] =
      static_cast<double>(bed.metrics.Counter("storage.s3.retries"));
  rep.counts["storage.timeouts"] =
      static_cast<double>(bed.metrics.Counter("storage.s3.timeouts"));
  rep.counts["faas.cold_starts"] = static_cast<double>(fleet.cold_starts);
  rep.counts["faas.throttles"] = static_cast<double>(fleet.throttles);
  rep.counts["faas.warm_ratio"] =
      fleet.invocations == 0 ? 0
                             : static_cast<double>(fleet.warm_starts) /
                                   static_cast<double>(fleet.invocations);
  RecordStore(bed.timed_store.get(), &rep);
  if (bed.timed_lambda != nullptr) {
    const PlatformCounters& c = bed.timed_lambda->counters();
    rep.counts["faas.invocations"] = static_cast<double>(c.invocations);
    rep.counts["engine.fragments"] = static_cast<double>(c.worker_handlers);
    rep.counts["engine.batches"] = static_cast<double>(c.batches);
    Digest latencies;
    latencies.Int(rep.events);
    for (const QueryTiming& q : bed.timed_lambda->queries()) {
      latencies.Str(q.query_id);
      latencies.Int(q.invoked);
      latencies.Int(q.completed);
      latencies.Int(q.ok ? 1 : 0);
    }
    rep.latency_digest = latencies.value();
  }
  return rep;
}


// ---------------------------------------------------------------------------
// Storage workloads: the benchmark's own closed-loop clients issue requests
// through storage::RetryClient against one S3 Standard bucket.

struct LoopSpec {
  std::string prefix;
  int64_t object_bytes = 0;
  int objects = 0;          ///< Pre-created objects that GETs draw from.
  double write_share = 0;   ///< Fraction of requests that are PUTs.
  SimDuration horizon = 0;  ///< Slots stop issuing after this long.
  sky::storage::RetryClient::Options retry;
};

/// Closed loop: each slot sends its next request as soon as the previous one
/// completes, until the horizon. Every completion is checked and digested.
class ClosedLoop {
 public:
  ClosedLoop(sky::sim::SimEnvironment* env, sky::storage::RetryClient* client,
             const LoopSpec& spec, HostTrace* trace)
      : env_(env),
        client_(client),
        spec_(spec),
        rng_(env->ForkRng(0xB0B)),
        trace_(trace) {}
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Issues the first request of every slot; slot i uses contexts[i].
  void Start(std::vector<sky::storage::ClientContext> contexts) {
    contexts_ = std::move(contexts);
    stop_ = env_->now() + spec_.horizon;
    active_ = static_cast<int64_t>(contexts_.size());
    for (size_t slot = 0; slot < contexts_.size(); ++slot) Issue(slot);
  }
  bool done() const { return active_ == 0; }

  /// Every issued request completed exactly once, every successful read
  /// returned the whole object, and the bucket holds exactly the
  /// pre-created bytes plus the bytes of the successful writes.
  void Check(const sky::storage::StorageService& store, RepResult* rep) const {
    rep->attempted = static_cast<int64_t>(completed_.size());
    rep->failed += failed_;
    if (failed_ > 0) {
      rep->errors.push_back(sky::StrFormat(
          "%lld requests failed after retries",
          static_cast<long long>(failed_)));
    }
    int64_t missing = 0;
    for (uint8_t seen : completed_) missing += seen == 0 ? 1 : 0;
    if (missing > 0 || duplicates_ > 0) {
      Fail(rep, sky::StrFormat("%lld requests never completed, %lld completed "
                               "twice",
                               static_cast<long long>(missing),
                               static_cast<long long>(duplicates_)));
    }
    if (short_reads_ > 0) {
      Fail(rep, sky::StrFormat("%lld reads returned a partial object",
                               static_cast<long long>(short_reads_)));
    }
    int64_t stored = 0;
    for (const auto& object : store.List(spec_.prefix)) stored += object.size;
    const int64_t expected =
        static_cast<int64_t>(spec_.objects) * spec_.object_bytes +
        written_bytes_;
    if (stored != expected) {
      Fail(rep, sky::StrFormat("bucket holds %lld bytes, expected %lld",
                               static_cast<long long>(stored),
                               static_cast<long long>(expected)));
    }
  }

  int64_t issued() const { return static_cast<int64_t>(completed_.size()); }
  uint64_t digest() const { return digest_.value(); }

 private:
  std::string ObjectKey(int64_t index) const {
    return spec_.prefix +
           sky::StrFormat("obj-%06lld", static_cast<long long>(index));
  }

  void Issue(size_t slot) {
    if (env_->now() >= stop_) {
      --active_;
      return;
    }
    const auto id = static_cast<int64_t>(completed_.size());
    completed_.push_back(0);
    const sky::storage::ClientContext& ctx = contexts_[slot];
    if (rng_.NextDouble() < spec_.write_share) {
      const std::string key =
          spec_.prefix +
          sky::StrFormat("w-%08lld", static_cast<long long>(next_write_++));
      client_->Put(key, sky::storage::Blob::Synthetic(spec_.object_bytes), ctx,
                   [this, slot, id](sky::Status status) {
                     Scope scope(trace_, Layer::kClient,
                                 static_cast<uint64_t>(id));
                     if (status.ok()) written_bytes_ += spec_.object_bytes;
                     Complete(id, status, 0);
                     Issue(slot);
                   });
      return;
    }
    const int64_t object = rng_.UniformInt(0, spec_.objects - 1);
    client_->GetRange(
        ObjectKey(object), 0, spec_.object_bytes, ctx,
        [this, slot, id, object](sky::Result<sky::storage::Blob> result) {
          Scope scope(trace_, Layer::kClient, static_cast<uint64_t>(id));
          const int64_t bytes = result.ok() ? result->size() : 0;
          if (result.ok() && bytes != spec_.object_bytes) ++short_reads_;
          digest_.Int(object);
          Complete(id, result.status(), bytes);
          Issue(slot);
        });
  }

  void Complete(int64_t id, const sky::Status& status, int64_t bytes) {
    uint8_t& seen = completed_[static_cast<size_t>(id)];
    if (seen != 0) ++duplicates_;
    seen = 1;
    if (!status.ok()) ++failed_;
    digest_.Int(id);
    digest_.Int(static_cast<int64_t>(status.code()));
    digest_.Int(env_->now());
    digest_.Int(bytes);
  }

  sky::sim::SimEnvironment* env_;
  sky::storage::RetryClient* client_;
  LoopSpec spec_;
  sky::Rng rng_;
  HostTrace* trace_;
  std::vector<sky::storage::ClientContext> contexts_;
  SimTime stop_ = 0;
  int64_t active_ = 0;
  std::vector<uint8_t> completed_;  ///< Per issued request.
  int64_t next_write_ = 0;
  int64_t failed_ = 0;
  int64_t duplicates_ = 0;
  int64_t short_reads_ = 0;
  int64_t written_bytes_ = 0;
  Digest digest_;
};

/// One bucket, its RetryClient and NICs, and the closed loop over them.
/// `ec2_clients`/`lambda_clients` > 0 give each client a NIC on the fabric,
/// so large payloads stream through the network model.
class StorageWorkload : public Workload {
 public:
  struct Shape {
    LoopSpec loop;
    int slots = 0;  ///< Slots without a NIC: payloads skip the fabric.
    int ec2_clients = 0;
    int ec2_threads = 0;
    int lambda_clients = 0;
    int lambda_threads = 0;
  };

  StorageWorkload(const RunConfig& config, Shape shape)
      : config_(config), shape_(std::move(shape)) {}

  RepResult RunRep(HostTrace* trace) override {
    RepResult rep;
    const int64_t setup_start = NowNs();
    sky::sim::SimEnvironment env(config_.seed);
    sky::net::Fabric fabric;
    sky::net::FabricDriver fabric_driver(&env, &fabric);
    sky::storage::ObjectStore bucket(
        &env, sky::storage::ObjectStore::StandardOptions());
    const LoopSpec& loop_spec = shape_.loop;
    for (int i = 0; i < loop_spec.objects; ++i) {
      SKYRISE_CHECK_OK(bucket.Insert(
          loop_spec.prefix + sky::StrFormat("obj-%06d", i),
          sky::storage::Blob::Synthetic(loop_spec.object_bytes)));
    }
    std::unique_ptr<TimedStore> timed;
    sky::storage::StorageService* service = &bucket;
    if (trace != nullptr) {
      timed = std::make_unique<TimedStore>(&bucket, trace,
                                           Layer::kStorageRetry);
      service = timed.get();
    }
    sky::storage::RetryClient client(&env, service, loop_spec.retry);
    std::vector<std::unique_ptr<sky::net::Nic>> nics;
    std::vector<sky::storage::ClientContext> contexts(
        static_cast<size_t>(shape_.slots));
    auto add_client = [&](std::unique_ptr<sky::net::Nic> nic, int threads) {
      sky::storage::ClientContext ctx;
      ctx.nic = nic.get();
      ctx.fabric = &fabric_driver;
      contexts.insert(contexts.end(), static_cast<size_t>(threads), ctx);
      nics.push_back(std::move(nic));
    };
    for (int c = 0; c < shape_.ec2_clients; ++c) {
      auto options = sky::net::MakeEc2NicOptions("c6gn.2xlarge");
      SKYRISE_CHECK_OK(options.status());
      add_client(std::make_unique<sky::net::Ec2Nic>(*options),
                 shape_.ec2_threads);
    }
    for (int c = 0; c < shape_.lambda_clients; ++c) {
      add_client(std::make_unique<sky::net::LambdaNic>(),
                 shape_.lambda_threads);
    }
    ClosedLoop loop(&env, &client, loop_spec, trace);
    rep.setup_s = HostSeconds(NowNs() - setup_start);

    const SimTime start = env.now();
    const uint64_t allocs = AllocCount();
    rep.wall_s = Drive(
        &env, loop_spec.horizon,
        [&] { loop.Start(std::move(contexts)); }, [&] { return loop.done(); },
        &rep.slices, trace);
    rep.allocs = AllocCount() - allocs;
    rep.sim_s = sky::ToSeconds(env.now() - start);
    rep.slice_s = sky::ToSeconds(kSlice);

    Digest digest;
    RecordSim(env, &rep, &digest);
    if (!loop.done()) Fail(&rep, "the closed loop did not drain");
    loop.Check(bucket, &rep);
    const auto& stats = client.stats();
    digest.Int(static_cast<int64_t>(loop.digest()));
    for (int64_t v : {stats.attempts, stats.throttles, stats.timeouts,
                      stats.successes, stats.permanent_failures}) {
      digest.Int(v);
    }
    digest.Int(bucket.partition_count());
    rep.digest = digest.value();

    rep.counts["datagen.bytes"] =
        static_cast<double>(loop_spec.objects) *
        static_cast<double>(loop_spec.object_bytes);
    rep.counts["storage.retries"] =
        static_cast<double>(stats.attempts - loop.issued());
    rep.counts["storage.timeouts"] = static_cast<double>(stats.timeouts);
    RecordStore(timed.get(), &rep);
    return rep;
  }

 private:
  RunConfig config_;
  Shape shape_;
};

/// s3_iops: 1 KiB GETs and PUTs from a closed-loop population sized above
/// one partition's capacity, so throttles, timeouts and retries all occur
/// (Figs. 9 and 11). No fabric: every request is a pure request-path event
/// chain through the kernel, the partition limiters and the retry client.
StorageWorkload::Shape IopsShape() {
  StorageWorkload::Shape shape;
  shape.loop.prefix = "iops/";
  shape.loop.object_bytes = sky::kKiB;
  shape.loop.objects = 65536;
  shape.loop.write_share = 0.4;
  shape.loop.horizon = sky::Seconds(60);
  shape.loop.retry.request_timeout = sky::Millis(200);
  shape.loop.retry.backoff_base = sky::Millis(25);
  shape.loop.retry.backoff_cap = sky::Seconds(2);
  shape.loop.retry.max_attempts = 16;
  shape.slots = 400;
  return shape;
}

/// s3_stream: EC2 and Lambda clients move 16 MiB objects through the fluid
/// fabric (Fig. 8): few events, each fabric step walking every active flow
/// and NIC token bucket.
StorageWorkload::Shape StreamShape() {
  StorageWorkload::Shape shape;
  shape.loop.prefix = "stream/";
  shape.loop.object_bytes = 16 * sky::kMiB;
  shape.loop.objects = 16384;
  shape.loop.write_share = 0.25;
  shape.loop.horizon = sky::Seconds(60);
  shape.loop.retry.request_timeout = sky::Millis(200);
  shape.loop.retry.timeout_per_mib = sky::Millis(100);
  shape.loop.retry.backoff_base = sky::Millis(25);
  shape.loop.retry.backoff_cap = sky::Seconds(2);
  shape.loop.retry.max_attempts = 16;
  shape.ec2_clients = 16;
  shape.ec2_threads = 16;
  shape.lambda_clients = 64;
  shape.lambda_threads = 4;
  return shape;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "serving") {
    return std::make_unique<ServingWorkload>(config);
  }
  if (config.workload == "s3_iops") {
    return std::make_unique<StorageWorkload>(config, IopsShape());
  }
  if (config.workload == "s3_stream") {
    return std::make_unique<StorageWorkload>(config, StreamShape());
  }
  return nullptr;
}

}  // namespace hostbench
