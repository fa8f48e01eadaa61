/// Simulator-core microbenchmark: measures the hot event-kernel paths that
/// every experiment in this repo sits on and emits BENCH_sim_core.json.
///
///   - events/sec through sim::SimEnvironment (calendar queue + pooled
///     events + small-buffer callbacks) vs. the seed event loop (binary-heap
///     std::priority_queue of std::function events with a cancellation
///     tombstone set), reproduced here verbatim as the baseline;
///   - the same contrast on quantised churn, where every event sits on the
///     20 ms fabric-step grid and the calendar rebuilds at nearly every grid
///     instant (the hostbench `s3_stream` event shape);
///   - overflow-list entries one calendar rebuild reads in a watchdog storm
///     of hostbench `s3_stream`'s pattern (about 500 pending watchdogs,
///     rebuild after rebuild moving a first byte or two into the calendar);
///   - allocations/event for both loops (global operator new counting);
///   - invocations/sec for a FaaS-style arrival/completion/timeout pattern
///     where nearly every timeout is cancelled — the simulator's dominant
///     cancellation workload;
///   - bytes decoded/sec and allocations per iteration through
///     format::DecodeColumnInto with reused column buffers, over all four
///     column encodings;
///   - allocations per attempt and spilled event callbacks on the storage
///     request path (storage::RetryClient into a throttling
///     storage::ObjectStore);
///   - allocations per worker invocation on the engine's query path (TPC-H
///     Q1 and Q12 through engine::QueryEngine on faas::LambdaPlatform);
///   - peak RSS of the whole run.
///
/// With --check-baseline <file>, the measured numbers are gated against the
/// machine-independent ratios in bench/sim_core_baseline.json (speedup and
/// allocs/event contrasts) plus generous absolute floors, and the process
/// exits non-zero on regression. CI runs this next to the query-regression
/// smoke.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <new>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "data/chunk.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "faas/lambda_platform.h"
#include "format/encoding.h"
#include "net/fabric.h"
#include "net/fabric_driver.h"
#include "platform/report.h"
#include "pricing/cost_meter.h"
#include "sim/environment.h"
#include "sim/watchdog_storm.h"
#include "storage/object_store.h"
#include "storage/queue_service.h"
#include "storage/retry_client.h"

#include "host_stats.h"

namespace {
/// Global allocation counter; bumped by the replaced operator new below.
uint64_t g_allocations = 0;
}  // namespace

// Replace the global allocator to count allocations exactly. Deallocation
// stays on the default path; this is a counting shim, not an allocator.
void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace skyrise;

namespace {

/// Wall-clock seconds for throughput measurement. The simulator itself never
/// reads host time; this benchmark measures the host cost of advancing
/// virtual time, which is exactly the one place wall clocks belong.
double NowSeconds() {
  return std::chrono::duration<double>(
             // skyrise-check: allow(banned-api, transitive-nondeterminism) — measuring host throughput.
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The seed repo's event loop, reproduced as the baseline: a binary-heap
/// priority_queue of events whose callbacks are heap-allocating
/// std::function objects, with an unordered_set of cancelled ids consulted
/// (and leaked for already-fired events) on pop.
class HeapEventLoop {
 public:
  uint64_t Schedule(int64_t delay, std::function<void()> fn) {
    const uint64_t id = next_id_++;
    queue_.push(Event{now_ + delay, next_sequence_++, id, std::move(fn)});
    return id;
  }

  void Cancel(uint64_t id) { cancelled_.insert(id); }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      auto it = cancelled_.find(ev.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.time;
      ev.fn();
      return true;
    }
    return false;
  }

  int64_t now() const { return now_; }

 private:
  struct Event {
    int64_t time;
    uint64_t sequence;
    uint64_t id;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };

  int64_t now_ = 0;
  uint64_t next_sequence_ = 1;
  uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_set<uint64_t> cancelled_;
};

/// Capture payload sized like a typical simulator callback (request context,
/// ids, deadlines): 40 bytes, pushing std::function to the heap while still
/// fitting sim::EventCallback's inline buffer alongside a pointer.
struct Payload {
  uint64_t a, b, c, d, e;
};

struct ChurnResult {
  int64_t events = 0;
  double seconds = 0;
  uint64_t allocations = 0;
  double events_per_sec() const { return events / seconds; }
  double allocs_per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
};

/// Shape of a schedule/fire/cancel churn run.
struct ChurnShape {
  int chains;
  int64_t fire_target;
  size_t max_timeouts;
  /// 0: a chain steps 1..1000 us ahead and arms a ~1 s timeout. Otherwise
  /// every event sits on this grid (us), as under the 20 ms network fabric
  /// step: a chain steps 1..4 grid points ahead and arms a timeout 2 s past
  /// the next grid point.
  int64_t grid;
};

/// Self-perpetuating schedule/fire/cancel churn, identical for both engines:
/// `chains` concurrent event chains; each fire reschedules its chain and
/// adds a long-dated timeout, and the oldest outstanding timeout is
/// cancelled once more than `max_timeouts` are pending — the retry-timeout
/// pattern that dominates the simulator's cancellation traffic.
template <typename Engine>
ChurnResult RunChurn(Engine* eng, const ChurnShape& shape) {
  uint64_t rng = 0x5ca1ab1e0ddba11ull;
  uint64_t sink = 0;
  std::deque<uint64_t> timeouts;

  struct Driver {
    Engine* eng;
    const ChurnShape* shape;
    uint64_t* rng;
    uint64_t* sink;
    std::deque<uint64_t>* timeouts;

    void ScheduleChain() {
      const Payload p{SplitMix64(rng), SplitMix64(rng), SplitMix64(rng),
                      SplitMix64(rng), SplitMix64(rng)};
      int64_t delay = static_cast<int64_t>(p.a % 1000) + 1;
      int64_t timeout_delay = 1000000 + static_cast<int64_t>(p.b % 1000);
      if (shape->grid > 0) {
        const int64_t to_grid = shape->grid - eng->now() % shape->grid;
        delay = to_grid + static_cast<int64_t>(p.a % 4) * shape->grid;
        timeout_delay = to_grid + 2000000;
      }
      eng->Schedule(delay, [this, p] {
        *sink ^= p.a + p.b + p.c + p.d + p.e;
        ScheduleChain();
      });
      timeouts->push_back(eng->Schedule(timeout_delay, [this] { ++*sink; }));
      if (timeouts->size() > shape->max_timeouts) {
        eng->Cancel(timeouts->front());
        timeouts->pop_front();
      }
    }
  };
  Driver driver{eng, &shape, &rng, &sink, &timeouts};

  ChurnResult result;
  const uint64_t allocs_before = g_allocations;
  const double start = NowSeconds();
  for (int i = 0; i < shape.chains; ++i) driver.ScheduleChain();
  while (result.events < shape.fire_target && eng->Step()) ++result.events;
  result.seconds = NowSeconds() - start;
  result.allocations = g_allocations - allocs_before;
  (void)sink;
  return result;
}

/// One churn shape on both engines. Best of two repetitions per engine,
/// fresh engine each time: the CI gates are ratios of the two throughputs,
/// so a scheduler hiccup during either run would skew them. The workload
/// itself is deterministic across reps.
struct ChurnPair {
  ChurnResult heap;
  ChurnResult calendar;
  sim::EventPoolStats pool;  ///< The calendar's; identical across reps.
  double speedup() const {
    return calendar.events_per_sec() / heap.events_per_sec();
  }
};

ChurnPair RunChurnPair(const ChurnShape& shape) {
  ChurnPair pair;
  for (int rep = 0; rep < 2; ++rep) {
    HeapEventLoop heap_loop;
    const ChurnResult r = RunChurn(&heap_loop, shape);
    if (rep == 0 || r.seconds < pair.heap.seconds) pair.heap = r;
  }
  for (int rep = 0; rep < 2; ++rep) {
    sim::SimEnvironment env(/*seed=*/7);
    const ChurnResult r = RunChurn(&env, shape);
    if (rep == 0 || r.seconds < pair.calendar.seconds) pair.calendar = r;
    pair.pool = env.pool_stats();
  }
  return pair;
}

struct StormResult {
  int64_t events = 0;
  double seconds = 0;
  sim::EventPoolStats pool;
  double reads_per_rebuild() const {
    return static_cast<double>(pool.rebuild_overflow_reads) /
           static_cast<double>(pool.calendar_resizes);
  }
};

/// SimEnvironment as the loop of a sim::WatchdogStorm.
struct StormLoop {
  sim::SimEnvironment env{/*seed=*/7};
  uint64_t sink = 0;
  SimTime now() const { return env.now(); }
  sim::EventId Schedule(SimDuration delay) {
    return env.Schedule(delay, [this] { ++sink; });
  }
  void Cancel(sim::EventId id) { env.Cancel(id); }
  void RunUntil(SimTime until) { env.RunUntil(until); }
};

/// hostbench `s3_stream`'s event pattern (sim/watchdog_storm.h): about 500
/// pending watchdogs, about 20 cancelled per 20 ms grid instant, each cancel
/// followed by an out-of-order arrival, and between the instants calendar
/// rebuilds that each move a first byte or two in from the overflow list.
StormResult RunWatchdogStorm(int64_t instants) {
  StormLoop loop;
  sim::WatchdogStorm<StormLoop> storm(&loop, sim::WatchdogStormShape{},
                                      /*seed=*/7);
  const double start = NowSeconds();
  while (storm.instants() < instants) storm.RunInstant();
  StormResult result;
  result.seconds = NowSeconds() - start;
  result.pool = loop.env.pool_stats();
  result.events = static_cast<int64_t>(result.pool.fired);
  return result;
}

/// FaaS-style invocation replay on the real SimEnvironment: each invocation
/// arrival schedules a completion and a watchdog timeout; the completion
/// cancels the timeout. Three schedules, two fires, one cancel per
/// invocation, with the cancel landing on a far-future event — the
/// calendar queue's worst bucket locality and the tombstone set's worst
/// growth in the seed loop.
double RunInvocationReplay(int64_t invocations) {
  sim::SimEnvironment env(/*seed=*/7);
  uint64_t rng = 0xfaceb00cull;
  int64_t completed = 0;
  const double start = NowSeconds();
  for (int64_t i = 0; i < invocations; ++i) {
    const int64_t arrival = static_cast<int64_t>(SplitMix64(&rng) % 500000);
    env.ScheduleAt(arrival, [&env, &rng, &completed] {
      const int64_t service = static_cast<int64_t>(SplitMix64(&rng) % 2000) + 1;
      const sim::EventId watchdog =
          env.Schedule(30000000, [&completed] { completed -= 1000000; });
      env.Schedule(service, [&env, &completed, watchdog] {
        ++completed;
        env.Cancel(watchdog);
      });
    });
  }
  env.Run();
  const double seconds = NowSeconds() - start;
  SKYRISE_CHECK(completed == invocations);
  return static_cast<double>(invocations) / seconds;
}

struct DecodeResult {
  double bytes_per_sec = 0;
  double allocs_per_iter = 0;
};

/// Steady-state decode throughput over all four encodings, decoding into
/// reused data::Column buffers (the DecodeRowGroupInto path).
DecodeResult RunDecodeBench() {
  constexpr int64_t kRows = 65536;
  constexpr int kIters = 64;

  data::Column ints(data::DataType::kInt64);
  data::Column doubles(data::DataType::kDouble);
  data::Column dict_strings(data::DataType::kString);
  data::Column plain_strings(data::DataType::kString);
  uint64_t rng = 0xc0ffee11ull;
  int64_t key = 0;
  static constexpr const char* kModes[] = {"AIR",  "RAIL",    "SHIP",
                                           "TRUCK", "MAIL",   "REG AIR",
                                           "FOB",   "NONE"};
  for (int64_t i = 0; i < kRows; ++i) {
    key += static_cast<int64_t>(SplitMix64(&rng) % 7);
    ints.AppendInt(key);
    doubles.AppendDouble(static_cast<double>(SplitMix64(&rng) % 100000) / 100);
    dict_strings.AppendString(kModes[SplitMix64(&rng) % 8]);
    plain_strings.AppendString(
        StrFormat("cust#%09llu",
                  static_cast<unsigned long long>(SplitMix64(&rng))));
  }

  struct Encoded {
    data::DataType type;
    std::string bytes;
  };
  std::vector<Encoded> encoded;
  for (const data::Column* col :
       {&ints, &doubles, &dict_strings, &plain_strings}) {
    Encoded e;
    e.type = col->type();
    (void)format::EncodeColumn(*col, &e.bytes);
    encoded.push_back(std::move(e));
  }

  std::vector<data::Column> out;
  for (const Encoded& e : encoded) out.emplace_back(e.type);

  int64_t bytes_total = 0;
  const uint64_t allocs_before = g_allocations;
  const double start = NowSeconds();
  for (int iter = 0; iter < kIters; ++iter) {
    for (size_t c = 0; c < encoded.size(); ++c) {
      SKYRISE_CHECK_OK(format::DecodeColumnInto(encoded[c].bytes.data(),
                                                encoded[c].bytes.size(),
                                                encoded[c].type, kRows,
                                                &out[c]));
      bytes_total += static_cast<int64_t>(encoded[c].bytes.size());
    }
  }
  const double seconds = NowSeconds() - start;
  const uint64_t allocs = g_allocations - allocs_before;
  SKYRISE_CHECK(out[0].ints().back() == key);

  DecodeResult result;
  result.bytes_per_sec = static_cast<double>(bytes_total) / seconds;
  result.allocs_per_iter = static_cast<double>(allocs) / kIters;
  return result;
}

/// Closed-loop 1 KiB GETs and PUTs through storage::RetryClient into one
/// Standard bucket, with more request slots than a partition serves, so
/// throttles, timeouts and retries all occur (hostbench's s3_iops shape,
/// shorter). Every key is formatted up front, writes overwrite existing
/// objects, and the caller's callbacks capture 8 bytes, which
/// std::function stores inline: each allocation counted belongs to the
/// request path itself.
class RequestLoop {
 public:
  RequestLoop(sim::SimEnvironment* env, storage::RetryClient* client,
              const std::vector<std::string>* keys, SimTime stop)
      : env_(env), client_(client), keys_(keys), stop_(stop) {}

  void Start(int slots) {
    for (int i = 0; i < slots; ++i) Issue();
  }
  int64_t requests() const { return requests_; }

 private:
  void Issue() {
    if (env_->now() >= stop_) return;
    ++requests_;
    const uint64_t draw = SplitMix64(&rng_);
    const std::string& key = (*keys_)[draw % keys_->size()];
    if ((draw >> 32) % 10 < 4) {
      client_->Put(key, storage::Blob::Synthetic(kKiB), ctx_,
                   [this](const Status&) { Issue(); });
      return;
    }
    client_->GetRange(key, 0, kKiB, ctx_,
                      [this](const Result<storage::Blob>&) { Issue(); });
  }

  sim::SimEnvironment* env_;
  storage::RetryClient* client_;
  const std::vector<std::string>* keys_;
  SimTime stop_;
  storage::ClientContext ctx_;
  uint64_t rng_ = 0x5107ab1eull;
  int64_t requests_ = 0;
};

struct RequestPathResult {
  int64_t requests = 0;
  storage::RetryClient::Stats stats;
  uint64_t allocations = 0;
  uint64_t heap_callbacks = 0;
  double seconds = 0;
  double allocs_per_attempt() const {
    return static_cast<double>(allocations) /
           static_cast<double>(stats.attempts);
  }
};

RequestPathResult RunRequestPath() {
  constexpr int kObjects = 4096;
  constexpr int kSlots = 600;
  sim::SimEnvironment env(/*seed=*/7);
  storage::ObjectStore bucket(&env, storage::ObjectStore::StandardOptions());
  std::vector<std::string> keys;
  for (int i = 0; i < kObjects; ++i) {
    keys.push_back(StrFormat("bench/request-path/obj-%06d", i));
    SKYRISE_CHECK_OK(
        bucket.Insert(keys.back(), storage::Blob::Synthetic(kKiB)));
  }
  storage::RetryClient::Options options;
  options.request_timeout = Millis(200);
  options.backoff_base = Millis(25);
  options.backoff_cap = Seconds(2);
  options.max_attempts = 16;
  storage::RetryClient client(&env, &bucket, options);
  RequestLoop loop(&env, &client, &keys, Seconds(20));

  RequestPathResult result;
  const uint64_t allocs_before = g_allocations;
  const double start = NowSeconds();
  loop.Start(kSlots);
  env.Run();
  result.seconds = NowSeconds() - start;
  result.allocations = g_allocations - allocs_before;
  result.requests = loop.requests();
  result.stats = client.stats();
  result.heap_callbacks = env.pool_stats().heap_callbacks;
  SKYRISE_CHECK(result.stats.throttles > 0 && result.stats.timeouts > 0);
  return result;
}

struct QueryPathResult {
  int64_t queries = 0;
  int64_t worker_invocations = 0;
  uint64_t allocations = 0;
  double seconds = 0;
  /// Table column chunks the engine's column memo decoded, per round.
  std::vector<int64_t> table_decodes;
  double allocs_per_invocation() const {
    return static_cast<double>(allocations) /
           static_cast<double>(worker_invocations);
  }
  /// Table column decodes after the first round, which read the same
  /// stored tables: 0 while every chunk is decoded once per engine.
  int64_t repeat_table_decodes() const {
    int64_t decodes = 0;
    for (size_t round = 1; round < table_decodes.size(); ++round) {
      decodes += table_decodes[round];
    }
    return decodes;
  }
};

/// TPC-H Q1 and Q12, three times each, through an engine::QueryEngine on a
/// faas::LambdaPlatform over small real tables: the per-fragment path of
/// plan hand-off, footers, manifests, ranged reads, decode and shuffle
/// writes. Tables and deployment are set up before counting, so every
/// allocation counted belongs to running queries; worker invocations are
/// the fragments the queries report (no faults, so no retries). The engine's
/// column memo decodes each table column chunk in the first round only.
QueryPathResult RunQueryPath() {
  constexpr int kParts = 4;
  constexpr int kRounds = 3;
  sim::SimEnvironment env(/*seed=*/2024);
  net::Fabric fabric;
  net::FabricDriver fabric_driver(&env, &fabric);
  storage::ObjectStore store(&env, storage::ObjectStore::StandardOptions());
  storage::QueueService queue(&env);
  format::SyntheticFileCatalog catalog;
  pricing::CostMeter meter;
  datagen::TpchConfig tpch;
  tpch.scale_factor = 0.002;
  SKYRISE_CHECK_OK(datagen::UploadDataset(
                       &store, "lineitem", datagen::LineitemSchema(), kParts,
                       [&](int p) {
                         return datagen::GenerateLineitemPartition(tpch, p,
                                                                   kParts);
                       })
                       .status());
  SKYRISE_CHECK_OK(datagen::UploadDataset(
                       &store, "orders", datagen::OrdersSchema(), kParts,
                       [&](int p) {
                         return datagen::GenerateOrdersPartition(tpch, p,
                                                                 kParts);
                       })
                       .status());
  engine::EngineContext context;
  context.env = &env;
  context.table_store = &store;
  context.shuffle_store = &store;
  context.catalog = &catalog;
  context.queue = &queue;
  context.meter = &meter;
  context.partitions_per_worker = 1;
  engine::QueryEngine engine(std::move(context));
  faas::FunctionRegistry registry;
  SKYRISE_CHECK_OK(engine.Deploy(&registry));
  faas::LambdaPlatform lambda(&env, &fabric_driver, &registry,
                              faas::LambdaPlatform::Options());
  engine::QuerySuiteOptions suite;
  suite.join_partitions = kParts;
  const std::vector<engine::QueryPlan> plans = {engine::BuildTpchQ1(),
                                                engine::BuildTpchQ12(suite)};

  QueryPathResult result;
  const uint64_t allocs_before = g_allocations;
  const double start = NowSeconds();
  const engine::ColumnChunkMemo& memo = engine.context()->table_columns;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t decodes_before = memo.misses();
    for (const engine::QueryPlan& plan : plans) {
      const std::string id = StrFormat("%s-%d", plan.query_name.c_str(), round);
      Result<engine::QueryResponse> outcome =
          Status::Internal("query did not finish");
      engine.Run(&lambda, plan, id,
                 [&outcome](Result<engine::QueryResponse> r) {
                   outcome = std::move(r);
                 });
      env.Run();
      SKYRISE_CHECK_OK(outcome.status());
      ++result.queries;
      result.worker_invocations += outcome->total_workers;
    }
    result.table_decodes.push_back(memo.misses() - decodes_before);
  }
  result.seconds = NowSeconds() - start;
  result.allocations = g_allocations - allocs_before;
  return result;
}

/// Gates the measured numbers against the committed baseline's
/// machine-independent ratios and generous absolute floors. Returns the
/// number of failed gates.
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

  int failures = 0;
  auto gate_min = [&](const char* name, double measured, double floor) {
    const bool ok = measured >= floor;
    std::printf("  %-34s %14.3f  (min %12.3f)  %s\n", name, measured, floor,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };
  auto gate_max = [&](const char* name, double measured, double ceiling) {
    const bool ok = measured <= ceiling;
    std::printf("  %-34s %14.3f  (max %12.3f)  %s\n", name, measured, ceiling,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  std::printf("\nbaseline gates (%s):\n", path.c_str());
  gate_min("speedup_events_per_sec",
           report.GetDouble("speedup_events_per_sec"),
           baseline.GetDouble("min_speedup_events"));
  gate_min("quantised.speedup_events_per_sec",
           report.Get("quantised").GetDouble("speedup_events_per_sec"),
           baseline.GetDouble("min_quantised_speedup"));
  gate_max("storm.overflow_reads_per_rebuild",
           report.Get("storm").GetDouble("overflow_reads_per_rebuild"),
           baseline.GetDouble("max_storm_overflow_reads_per_rebuild"));
  gate_max("calendar.allocs_per_event",
           report.Get("calendar").GetDouble("allocs_per_event"),
           baseline.GetDouble("max_allocs_per_event"));
  gate_min("heap_baseline.allocs_per_event",
           report.Get("heap_baseline").GetDouble("allocs_per_event"),
           baseline.GetDouble("min_heap_allocs_per_event"));
  gate_min("calendar.events_per_sec",
           report.Get("calendar").GetDouble("events_per_sec"),
           baseline.GetDouble("min_events_per_sec"));
  gate_min("invocations_per_sec", report.GetDouble("invocations_per_sec"),
           baseline.GetDouble("min_invocations_per_sec"));
  gate_min("decode.bytes_per_sec",
           report.Get("decode").GetDouble("bytes_per_sec"),
           baseline.GetDouble("min_decode_bytes_per_sec"));
  gate_max("decode.allocs_per_iter",
           report.Get("decode").GetDouble("allocs_per_iter"),
           baseline.GetDouble("max_decode_allocs_per_iter"));
  gate_max("request_path.allocs_per_attempt",
           report.Get("request_path").GetDouble("allocs_per_attempt"),
           baseline.GetDouble("max_request_path_allocs_per_attempt"));
  gate_max("request_path.heap_callbacks",
           report.Get("request_path").GetDouble("heap_callbacks"),
           baseline.GetDouble("max_request_path_heap_callbacks"));
  gate_max("query_path.allocs_per_invocation",
           report.Get("query_path").GetDouble("allocs_per_invocation"),
           baseline.GetDouble("max_query_path_allocs_per_invocation"));
  gate_max("query_path.repeat_table_decodes",
           report.Get("query_path").GetDouble("repeat_table_decodes"),
           baseline.GetDouble("max_query_path_repeat_table_decodes"));
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  platform::PrintHeader("Simulator core",
                        "Event-kernel and decode hot-path throughput "
                        "(BENCH_sim_core.json)");

  // Timer churn: dense, distinct event times.
  const ChurnPair churn = RunChurnPair({/*chains=*/16384,
                                        /*fire_target=*/1000000,
                                        /*max_timeouts=*/512, /*grid=*/0});
  // Quantised churn: every event on the 20 ms fabric-step grid, so the
  // median inter-event gap is 0, every rebuild picks the 1 us width floor
  // and the calendar drains into the overflow list at each grid instant.
  const ChurnPair quantised = RunChurnPair({/*chains=*/64,
                                            /*fire_target=*/400000,
                                            /*max_timeouts=*/256,
                                            /*grid=*/20000});
  // Watchdog storm: 4,000 grid instants, 80 s of simulated time.
  const StormResult storm = RunWatchdogStorm(4000);
  constexpr int64_t kInvocations = 200000;

  const ChurnResult& heap = churn.heap;
  const ChurnResult& calendar = churn.calendar;
  const sim::EventPoolStats& pool = churn.pool;
  const double invocations_per_sec = RunInvocationReplay(kInvocations);
  const DecodeResult decode = RunDecodeBench();
  const RequestPathResult requests = RunRequestPath();
  const QueryPathResult query_path = RunQueryPath();
  const int64_t peak_rss = bench::PeakRssBytes();
  const double speedup = churn.speedup();

  platform::TablePrinter table(
      {"loop", "events/sec", "allocs/event", "events"});
  table.AddRow({"heap baseline (seed)",
                StrFormat("%.0f", heap.events_per_sec()),
                StrFormat("%.3f", heap.allocs_per_event()),
                StrFormat("%lld", static_cast<long long>(heap.events))});
  table.AddRow({"calendar + pool",
                StrFormat("%.0f", calendar.events_per_sec()),
                StrFormat("%.3f", calendar.allocs_per_event()),
                StrFormat("%lld", static_cast<long long>(calendar.events))});
  table.AddRow({"quantised: heap baseline",
                StrFormat("%.0f", quantised.heap.events_per_sec()),
                StrFormat("%.3f", quantised.heap.allocs_per_event()),
                StrFormat("%lld",
                          static_cast<long long>(quantised.heap.events))});
  table.AddRow({"quantised: calendar + pool",
                StrFormat("%.0f", quantised.calendar.events_per_sec()),
                StrFormat("%.3f", quantised.calendar.allocs_per_event()),
                StrFormat("%lld",
                          static_cast<long long>(quantised.calendar.events))});
  table.AddRow({"watchdog storm",
                StrFormat("%.0f", static_cast<double>(storm.events) /
                                      storm.seconds),
                "-", StrFormat("%lld", static_cast<long long>(storm.events))});
  table.AddRow({"request path, per attempt",
                StrFormat("%.0f", static_cast<double>(requests.stats.attempts) /
                                      requests.seconds),
                StrFormat("%.3f", requests.allocs_per_attempt()),
                StrFormat("%lld",
                          static_cast<long long>(requests.stats.attempts))});
  table.Print();
  std::printf("speedup %.2fx | quantised speedup %.2fx (%llu rebuilds) | "
              "invocations/sec %.0f | decode %s/s | "
              "heap-spilled callbacks %llu | peak RSS %s\n",
              speedup, quantised.speedup(),
              static_cast<unsigned long long>(
                  quantised.pool.calendar_resizes),
              invocations_per_sec,
              FormatBytes(static_cast<int64_t>(decode.bytes_per_sec)).c_str(),
              static_cast<unsigned long long>(pool.heap_callbacks),
              FormatBytes(peak_rss).c_str());
  std::printf("watchdog storm: %llu rebuilds, %.1f overflow entries read "
              "per rebuild, %llu cancelled events freed\n",
              static_cast<unsigned long long>(storm.pool.calendar_resizes),
              storm.reads_per_rebuild(),
              static_cast<unsigned long long>(storm.pool.cancelled_dropped));
  std::printf("request path: %lld requests, %lld attempts, %lld throttles, "
              "%lld timeouts, %llu heap-spilled callbacks\n",
              static_cast<long long>(requests.requests),
              static_cast<long long>(requests.stats.attempts),
              static_cast<long long>(requests.stats.throttles),
              static_cast<long long>(requests.stats.timeouts),
              static_cast<unsigned long long>(requests.heap_callbacks));
  std::string decodes_per_round;
  for (const int64_t decodes : query_path.table_decodes) {
    if (!decodes_per_round.empty()) decodes_per_round += "/";
    decodes_per_round += std::to_string(decodes);
  }
  std::printf("query path: %lld queries, %lld worker invocations, "
              "%.1f allocations per invocation, %.2f s, "
              "table column decodes per round %s\n",
              static_cast<long long>(query_path.queries),
              static_cast<long long>(query_path.worker_invocations),
              query_path.allocs_per_invocation(), query_path.seconds,
              decodes_per_round.c_str());

  JsonObject heap_json;
  heap_json["events_per_sec"] = heap.events_per_sec();
  heap_json["allocs_per_event"] = heap.allocs_per_event();
  heap_json["events"] = heap.events;
  JsonObject calendar_json;
  calendar_json["events_per_sec"] = calendar.events_per_sec();
  calendar_json["allocs_per_event"] = calendar.allocs_per_event();
  calendar_json["events"] = calendar.events;
  calendar_json["heap_spilled_callbacks"] =
      static_cast<int64_t>(pool.heap_callbacks);
  calendar_json["bucket_count"] = static_cast<int64_t>(pool.bucket_count);
  calendar_json["calendar_resizes"] =
      static_cast<int64_t>(pool.calendar_resizes);
  JsonObject quantised_json;
  quantised_json["heap_events_per_sec"] = quantised.heap.events_per_sec();
  quantised_json["events_per_sec"] = quantised.calendar.events_per_sec();
  quantised_json["speedup_events_per_sec"] = quantised.speedup();
  quantised_json["events"] = quantised.calendar.events;
  quantised_json["calendar_resizes"] =
      static_cast<int64_t>(quantised.pool.calendar_resizes);
  quantised_json["cancelled_dropped"] =
      static_cast<int64_t>(quantised.pool.cancelled_dropped);
  JsonObject storm_json;
  storm_json["events"] = storm.events;
  storm_json["events_per_sec"] =
      static_cast<double>(storm.events) / storm.seconds;
  storm_json["calendar_resizes"] =
      static_cast<int64_t>(storm.pool.calendar_resizes);
  storm_json["cancelled_dropped"] =
      static_cast<int64_t>(storm.pool.cancelled_dropped);
  storm_json["overflow_reads"] =
      static_cast<int64_t>(storm.pool.rebuild_overflow_reads);
  storm_json["overflow_reads_per_rebuild"] = storm.reads_per_rebuild();
  JsonObject decode_json;
  decode_json["bytes_per_sec"] = decode.bytes_per_sec;
  decode_json["allocs_per_iter"] = decode.allocs_per_iter;

  JsonObject request_path_json;
  request_path_json["requests"] = requests.requests;
  request_path_json["attempts"] = requests.stats.attempts;
  request_path_json["throttles"] = requests.stats.throttles;
  request_path_json["timeouts"] = requests.stats.timeouts;
  request_path_json["attempts_per_sec"] =
      static_cast<double>(requests.stats.attempts) / requests.seconds;
  request_path_json["allocs_per_attempt"] = requests.allocs_per_attempt();
  request_path_json["heap_callbacks"] =
      static_cast<int64_t>(requests.heap_callbacks);

  JsonObject query_path_json;
  query_path_json["queries"] = query_path.queries;
  query_path_json["worker_invocations"] = query_path.worker_invocations;
  query_path_json["allocs_per_invocation"] =
      query_path.allocs_per_invocation();
  JsonArray table_decodes_json;
  for (const int64_t decodes : query_path.table_decodes) {
    table_decodes_json.push_back(Json(decodes));
  }
  query_path_json["table_decodes_per_round"] = Json(table_decodes_json);
  query_path_json["repeat_table_decodes"] = query_path.repeat_table_decodes();

  JsonObject doc;
  doc["heap_baseline"] = heap_json;
  doc["calendar"] = calendar_json;
  doc["speedup_events_per_sec"] = speedup;
  doc["quantised"] = quantised_json;
  doc["storm"] = storm_json;
  doc["invocations_per_sec"] = invocations_per_sec;
  doc["decode"] = decode_json;
  doc["request_path"] = request_path_json;
  doc["query_path"] = query_path_json;
  doc["peak_rss_bytes"] = peak_rss;
  std::ofstream out("BENCH_sim_core.json");
  SKYRISE_CHECK(out.good());
  out << Json(doc).Dump(2) << "\n";
  std::printf("\nwrote BENCH_sim_core.json\n");

  if (argc == 3 && std::string(argv[1]) == "--check-baseline") {
    const int failures = CheckBaseline(argv[2], Json(doc));
    if (failures > 0) {
      std::printf("\n%d baseline gate(s) FAILED\n", failures);
      return 1;
    }
    std::printf("all baseline gates passed\n");
  }
  return 0;
}
