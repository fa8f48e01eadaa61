#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "engine/engine.h"
#include "faas/function.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/admission.h"
#include "serving/arrival.h"
#include "serving/workload.h"
#include "sim/environment.h"

/// \file frontend.h
/// Multi-tenant serving frontend: admits a population of tenants — each
/// with its own arrival process, query mix, quota, and fair-share weight —
/// against one shared compute platform on the single-threaded DES. Queries
/// interleave freely on the event loop (the coordinator publishes per-query
/// grants keyed by query id), and all tenants draw sandboxes from the same
/// warm pool, so cross-tenant contention and reuse are actually modeled.
///
/// Determinism: arrival instants come from per-tenant forks of the sim RNG,
/// admission decisions are pure functions of the offer/release sequence,
/// query ids are `t<tenant>-q<seq>`, and the report walks vectors and
/// std::maps only — two identically-seeded runs produce byte-identical
/// report JSON (pinned by tests/serving).

namespace skyrise::serving {

struct TenantSpec {
  TenantPolicy policy;
  ArrivalSpec arrival;
  WorkloadMix mix = WorkloadMix::Interactive();
  /// Per-tenant scheduling override (0 = engine context default).
  int partitions_per_worker = 0;
  /// Per-tenant end-to-end query deadline stamped into the coordinator
  /// payload (0 = none; the engine-context policy then applies).
  SimDuration query_deadline = 0;
};

struct ServingOptions {
  /// Arrivals are generated for this long after Start(); in-flight and
  /// queued work then drains.
  SimDuration horizon = Seconds(60);
  /// Frontend-wide in-flight cap (the serving tier's own budget against the
  /// shared fleet); <= 0 = unlimited.
  int global_max_concurrent = 64;
  /// RNG stream id for the frontend (tenant i forks sub-stream i).
  uint64_t rng_stream = 0x5E21;
  /// Plan parameters for the suite query classes.
  engine::QuerySuiteOptions suite;
  /// Concurrency-timeline sampling cadence (<= 0 disables sampling).
  SimDuration sample_period = Seconds(1);
  /// Optional probe recorded with each timeline sample, e.g.
  /// `[&] { return lambda->active_executions(); }` to watch the fleet's
  /// burst-then-ramp admission behavior next to the frontend's own counts.
  std::function<int64_t()> fleet_probe;
};

/// Per-class slice of a tenant (or of the whole run).
struct ClassSlice {
  std::string name;
  int64_t dispatched = 0;
  int64_t completed = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cost_usd = 0;
  double cost_per_1k_usd = 0;  ///< USD per 1,000 completed queries.
};

struct ServingReport {
  double sim_seconds = 0;

  struct Tenant {
    std::string name;
    int64_t arrivals = 0;
    int64_t dispatched = 0;
    int64_t queued = 0;
    int64_t shed = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    double queries_per_sec = 0;  ///< Completed queries / sim second.
    double p50_ms = 0;           ///< Arrival-to-completion latency.
    double p99_ms = 0;
    double queue_p99_ms = 0;  ///< Arrival-to-dispatch wait.
    double cost_usd = 0;      ///< Span-subtree USD across this tenant's queries.
    double cost_per_1k_usd = 0;
    int peak_in_flight = 0;
    std::vector<ClassSlice> classes;
  };
  std::vector<Tenant> tenants;
  /// Cross-tenant per-class aggregates.
  std::vector<ClassSlice> classes;

  int64_t total_arrivals = 0;
  int64_t total_dispatched = 0;
  int64_t total_completed = 0;
  int64_t total_failed = 0;
  int64_t total_shed = 0;
  double queries_per_sec = 0;
  double p99_ms = 0;
  double total_cost_usd = 0;
  double cost_per_1k_usd = 0;
  int peak_in_flight = 0;

  struct Sample {
    double t_s = 0;
    int in_flight = 0;       ///< Frontend-admitted queries in flight.
    int backlog = 0;         ///< Queued arrivals across tenants.
    int64_t fleet_active = 0;  ///< fleet_probe() value (0 when unset).
  };
  std::vector<Sample> timeline;

  Json ToJson() const;
};

/// Aligned per-tenant SLO table (and a totals row) for terminal output.
std::string RenderSloTable(const ServingReport& report);

class ServingFrontend {
 public:
  /// `engine` is optional: when set, Start() points the engine context's
  /// worker platform at `platform` (the usual single-deployment wiring);
  /// pass nullptr when driving a fake platform or pre-wired context.
  /// `tracer`/`metrics` may be nullptr (cost attribution then reports 0).
  ServingFrontend(sim::SimEnvironment* env, faas::ComputePlatform* platform,
                  engine::QueryEngine* engine, obs::Tracer* tracer,
                  obs::MetricsRegistry* metrics, const ServingOptions& options,
                  std::vector<TenantSpec> tenants);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(ServingFrontend);

  /// Schedules the first arrival per tenant and the timeline sampler.
  void Start();

  /// True once the arrival horizon has passed and no query is in flight or
  /// queued.
  bool Done() const;

  /// Steps the simulation until Done() or `hard_horizon` (absolute sim
  /// time), whichever comes first.
  void DriveUntil(SimTime hard_horizon);

  /// Builds the scenario report from the completed records (callable any
  /// time; usually after DriveUntil).
  ServingReport Report() const;

  const AdmissionController& admission() const { return admission_; }

 private:
  struct QueryRecord {
    int tenant = 0;
    QueryClass cls = QueryClass::kTpchQ6;
    std::string id;
    engine::QueryPlan plan;
    SimTime arrival = 0;
    SimTime dispatch = -1;
    SimTime complete = -1;
    bool shed = false;
    bool ok = false;
    obs::SpanId span = obs::kNoSpan;
  };

  void OnArrival(int tenant_index);
  void ScheduleNextArrival(int tenant_index);
  void Dispatch(int64_t record_index);
  void OnComplete(int64_t record_index, const Result<Json>& result);
  void DrainQueues();
  void Sample();

  struct TenantState {
    TenantSpec spec;
    ArrivalProcess arrivals;
    Rng workload_rng;
    int64_t next_sequence = 0;
    SimTime last_arrival = 0;
    bool arrivals_done = false;

    TenantState(const TenantSpec& s, ArrivalProcess a, Rng rng)
        : spec(s), arrivals(std::move(a)), workload_rng(rng) {}
  };

  sim::SimEnvironment* env_;
  faas::ComputePlatform* platform_;
  engine::QueryEngine* engine_;
  obs::Tracer* tracer_;
  obs::MetricsRegistry* metrics_;
  ServingOptions opt_;
  std::vector<TenantState> tenants_;
  AdmissionController admission_;
  std::vector<QueryRecord> records_;
  std::vector<ServingReport::Sample> timeline_;
  SimTime start_time_ = 0;
  SimTime horizon_end_ = 0;
  bool started_ = false;
};

}  // namespace skyrise::serving
