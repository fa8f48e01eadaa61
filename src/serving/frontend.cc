#include "serving/frontend.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace skyrise::serving {

namespace {

std::vector<TenantPolicy> ExtractPolicies(
    const std::vector<TenantSpec>& tenants) {
  std::vector<TenantPolicy> policies;
  policies.reserve(tenants.size());
  for (const auto& tenant : tenants) policies.push_back(tenant.policy);
  return policies;
}

const char* OutcomeOf(const Result<Json>& result) {
  if (result.ok()) return "ok";
  const Status& status = result.status();
  if (status.IsDeadlineExceeded()) return "timeout";
  if (status.IsResourceExhausted()) return "throttle";
  return "error";
}

}  // namespace

ServingFrontend::ServingFrontend(sim::SimEnvironment* env,
                                 faas::ComputePlatform* platform,
                                 engine::QueryEngine* engine,
                                 obs::Tracer* tracer,
                                 obs::MetricsRegistry* metrics,
                                 const ServingOptions& options,
                                 std::vector<TenantSpec> tenants)
    : env_(env),
      platform_(platform),
      engine_(engine),
      tracer_(tracer),
      metrics_(metrics),
      opt_(options),
      admission_(AdmissionController::Options{options.global_max_concurrent},
                 ExtractPolicies(tenants)) {
  const Rng base = env_->ForkRng(opt_.rng_stream);
  tenants_.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    // Two independent sub-streams per tenant: arrival instants and
    // workload sampling never perturb each other.
    tenants_.emplace_back(
        tenants[i],
        ArrivalProcess(tenants[i].arrival,
                       base.Fork(2 * static_cast<uint64_t>(i))),
        base.Fork(2 * static_cast<uint64_t>(i) + 1));
  }
}

void ServingFrontend::Start() {
  started_ = true;
  start_time_ = env_->now();
  horizon_end_ = start_time_ + opt_.horizon;
  if (engine_ != nullptr) engine_->context()->worker_platform = platform_;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    tenants_[i].last_arrival = start_time_;
    ScheduleNextArrival(static_cast<int>(i));
  }
  if (opt_.sample_period > 0) Sample();
}

bool ServingFrontend::Done() const {
  if (!started_) return false;
  for (const auto& tenant : tenants_) {
    if (!tenant.arrivals_done) return false;
  }
  return admission_.global_in_flight() == 0 && admission_.backlog() == 0;
}

void ServingFrontend::DriveUntil(SimTime hard_horizon) {
  while (!Done() && env_->now() < hard_horizon) {
    if (!env_->Step()) break;
  }
}

void ServingFrontend::ScheduleNextArrival(int tenant_index) {
  TenantState& tenant = tenants_[static_cast<size_t>(tenant_index)];
  const SimTime next = tenant.arrivals.Next(tenant.last_arrival);
  if (next >= horizon_end_) {
    tenant.arrivals_done = true;
    return;
  }
  tenant.last_arrival = next;
  env_->ScheduleAt(next, [this, tenant_index] { OnArrival(tenant_index); });
}

void ServingFrontend::OnArrival(int tenant_index) {
  TenantState& tenant = tenants_[static_cast<size_t>(tenant_index)];
  const int64_t record_index = static_cast<int64_t>(records_.size());
  QueryRecord record;
  record.tenant = tenant_index;
  record.cls = SampleClass(tenant.spec.mix, &tenant.workload_rng);
  record.id = "t" + std::to_string(tenant_index) + "-q" +
              std::to_string(tenant.next_sequence++);
  record.plan = BuildPlanFor(record.cls, opt_.suite, &tenant.workload_rng);
  record.arrival = env_->now();
  records_.push_back(std::move(record));

  const std::string& name = tenant.spec.policy.name;
  if (metrics_ != nullptr) {
    metrics_->Add("serving.arrivals");
    metrics_->Add("serving." + name + ".arrivals");
  }
  switch (admission_.Offer(tenant_index, record_index)) {
    case AdmissionController::Decision::kDispatch:
      Dispatch(record_index);
      break;
    case AdmissionController::Decision::kQueue:
      if (metrics_ != nullptr) {
        metrics_->Add("serving.queued");
        metrics_->Add("serving." + name + ".queued");
      }
      break;
    case AdmissionController::Decision::kShed:
      records_[static_cast<size_t>(record_index)].shed = true;
      if (metrics_ != nullptr) {
        metrics_->Add("serving.shed");
        metrics_->Add("serving." + name + ".shed");
      }
      if (tracer_ != nullptr) {
        tracer_->Instant("serving", "admission.shed", "serving");
      }
      break;
  }
  ScheduleNextArrival(tenant_index);
}

void ServingFrontend::Dispatch(int64_t record_index) {
  QueryRecord& record = records_[static_cast<size_t>(record_index)];
  const TenantState& tenant = tenants_[static_cast<size_t>(record.tenant)];
  record.dispatch = env_->now();
  if (tracer_ != nullptr) {
    record.span = tracer_->Begin("serving", "query " + record.id, "serving");
    tracer_->SetArg(record.span, "tenant", Json(tenant.spec.policy.name));
    tracer_->SetArg(record.span, "class", Json(QueryClassName(record.cls)));
  }
  if (metrics_ != nullptr) {
    metrics_->Add("serving.dispatched");
    metrics_->Add("serving." + tenant.spec.policy.name + ".dispatched");
  }
  Json payload = engine::CoordinatorPayload(record.plan, record.id,
                                            tenant.spec.partitions_per_worker);
  if (tenant.spec.query_deadline > 0) {
    payload["deadline_us"] = env_->now() + tenant.spec.query_deadline;
  }
  if (record.span != obs::kNoSpan) payload["trace_parent"] = record.span;
  platform_->Invoke(
      engine::kCoordinatorFunction, std::move(payload),
      [this, record_index](Result<Json> result) {
        OnComplete(record_index, result);
      });
}

void ServingFrontend::OnComplete(int64_t record_index,
                                 const Result<Json>& result) {
  QueryRecord& record = records_[static_cast<size_t>(record_index)];
  record.complete = env_->now();
  record.ok = result.ok();
  if (tracer_ != nullptr) tracer_->EndWith(record.span, OutcomeOf(result));
  const std::string& name =
      tenants_[static_cast<size_t>(record.tenant)].spec.policy.name;
  if (metrics_ != nullptr) {
    if (record.ok) {
      const double latency_ms = ToMillis(record.complete - record.arrival);
      metrics_->Add("serving.completed");
      metrics_->Add("serving." + name + ".completed");
      metrics_->Record("serving.latency_ms", latency_ms);
      metrics_->Record("serving." + name + ".latency_ms", latency_ms);
      metrics_->Record("serving." + name + ".queue_ms",
                       ToMillis(record.dispatch - record.arrival));
    } else {
      metrics_->Add("serving.failed");
      metrics_->Add("serving." + name + ".failed");
    }
  }
  admission_.Release(record.tenant);
  DrainQueues();
}

void ServingFrontend::DrainQueues() {
  while (auto next = admission_.TryDispatchQueued()) {
    Dispatch(next->second);
  }
}

void ServingFrontend::Sample() {
  ServingReport::Sample sample;
  sample.t_s = ToSeconds(env_->now() - start_time_);
  sample.in_flight = admission_.global_in_flight();
  sample.backlog = admission_.backlog();
  sample.fleet_active = opt_.fleet_probe ? opt_.fleet_probe() : 0;
  timeline_.push_back(sample);
  if (Done()) return;
  env_->Schedule(opt_.sample_period, [this] { Sample(); });
}

ServingReport ServingFrontend::Report() const {
  ServingReport report;
  const SimDuration elapsed =
      std::max<SimDuration>(1, env_->now() - start_time_);
  report.sim_seconds = ToSeconds(elapsed);
  report.timeline = timeline_;
  report.peak_in_flight = admission_.peak_global_in_flight();

  // Per-span subtree cost rollup: span ids are allocated in open order and
  // parents open before children, so one reverse pass accumulates each
  // subtree's exact USD into its root (the serving span of each query).
  std::vector<double> subtree;
  if (tracer_ != nullptr) {
    const auto& spans = tracer_->spans();
    subtree.assign(spans.size() + 1, 0.0);
    for (size_t i = spans.size(); i > 0; --i) {
      const obs::Span& span = spans[i - 1];
      subtree[i] += span.cost_usd;
      if (span.parent > 0 && static_cast<size_t>(span.parent) < i) {
        subtree[static_cast<size_t>(span.parent)] += subtree[i];
      }
    }
  }
  auto query_cost = [&](const QueryRecord& record) {
    if (record.span <= 0 ||
        static_cast<size_t>(record.span) >= subtree.size()) {
      return 0.0;
    }
    return subtree[static_cast<size_t>(record.span)];
  };

  struct SliceAccumulator {
    int64_t dispatched = 0;
    int64_t completed = 0;
    Histogram latency;
    double cost_usd = 0;
  };
  auto finish_slice = [](const std::string& name,
                         const SliceAccumulator& acc) {
    ClassSlice slice;
    slice.name = name;
    slice.dispatched = acc.dispatched;
    slice.completed = acc.completed;
    slice.p50_ms = acc.latency.Percentile(50);
    slice.p99_ms = acc.latency.Percentile(99);
    slice.cost_usd = acc.cost_usd;
    slice.cost_per_1k_usd =
        acc.completed == 0
            ? 0
            : acc.cost_usd / static_cast<double>(acc.completed) * 1000.0;
    return slice;
  };

  // std::map keyed by the class enum keeps slice order deterministic.
  std::map<int, SliceAccumulator> global_classes;
  Histogram global_latency;

  for (size_t t = 0; t < tenants_.size(); ++t) {
    const auto& stats = admission_.stats(static_cast<int>(t));
    ServingReport::Tenant tenant;
    tenant.name = tenants_[t].spec.policy.name;
    tenant.arrivals = stats.arrivals;
    tenant.dispatched = stats.dispatched;
    tenant.queued = stats.queued;
    tenant.shed = stats.shed;
    tenant.peak_in_flight = stats.peak_in_flight;

    Histogram latency;
    Histogram queue_wait;
    std::map<int, SliceAccumulator> classes;
    for (const auto& record : records_) {
      if (record.tenant != static_cast<int>(t) || record.shed) continue;
      if (record.dispatch < 0) continue;  // Still queued at report time.
      auto& slice = classes[static_cast<int>(record.cls)];
      auto& global_slice = global_classes[static_cast<int>(record.cls)];
      ++slice.dispatched;
      ++global_slice.dispatched;
      if (record.complete < 0) continue;  // Still in flight.
      if (!record.ok) {
        ++tenant.failed;
        continue;
      }
      ++tenant.completed;
      ++slice.completed;
      ++global_slice.completed;
      const double latency_ms = ToMillis(record.complete - record.arrival);
      latency.Record(latency_ms);
      global_latency.Record(latency_ms);
      slice.latency.Record(latency_ms);
      global_slice.latency.Record(latency_ms);
      queue_wait.Record(ToMillis(record.dispatch - record.arrival));
      const double cost = query_cost(record);
      tenant.cost_usd += cost;
      slice.cost_usd += cost;
      global_slice.cost_usd += cost;
    }
    tenant.queries_per_sec =
        static_cast<double>(tenant.completed) / report.sim_seconds;
    tenant.p50_ms = latency.Percentile(50);
    tenant.p99_ms = latency.Percentile(99);
    tenant.queue_p99_ms = queue_wait.Percentile(99);
    tenant.cost_per_1k_usd =
        tenant.completed == 0
            ? 0
            : tenant.cost_usd / static_cast<double>(tenant.completed) * 1000.0;
    for (const auto& [cls, acc] : classes) {
      tenant.classes.push_back(
          finish_slice(QueryClassName(static_cast<QueryClass>(cls)), acc));
    }

    report.total_arrivals += tenant.arrivals;
    report.total_dispatched += tenant.dispatched;
    report.total_completed += tenant.completed;
    report.total_failed += tenant.failed;
    report.total_shed += tenant.shed;
    report.total_cost_usd += tenant.cost_usd;
    report.tenants.push_back(std::move(tenant));
  }
  for (const auto& [cls, acc] : global_classes) {
    report.classes.push_back(
        finish_slice(QueryClassName(static_cast<QueryClass>(cls)), acc));
  }
  report.queries_per_sec =
      static_cast<double>(report.total_completed) / report.sim_seconds;
  report.p99_ms = global_latency.Percentile(99);
  report.cost_per_1k_usd =
      report.total_completed == 0
          ? 0
          : report.total_cost_usd /
                static_cast<double>(report.total_completed) * 1000.0;
  return report;
}

namespace {

Json SliceToJson(const ClassSlice& slice) {
  Json json = Json::Object();
  json["class"] = slice.name;
  json["dispatched"] = slice.dispatched;
  json["completed"] = slice.completed;
  json["p50_ms"] = slice.p50_ms;
  json["p99_ms"] = slice.p99_ms;
  json["cost_usd"] = slice.cost_usd;
  json["cost_per_1k_usd"] = slice.cost_per_1k_usd;
  return json;
}

}  // namespace

Json ServingReport::ToJson() const {
  Json json = Json::Object();
  json["sim_seconds"] = sim_seconds;
  Json totals = Json::Object();
  totals["arrivals"] = total_arrivals;
  totals["dispatched"] = total_dispatched;
  totals["completed"] = total_completed;
  totals["failed"] = total_failed;
  totals["shed"] = total_shed;
  totals["queries_per_sec"] = queries_per_sec;
  totals["p99_ms"] = p99_ms;
  totals["cost_usd"] = total_cost_usd;
  totals["cost_per_1k_usd"] = cost_per_1k_usd;
  totals["peak_in_flight"] = peak_in_flight;
  json["totals"] = std::move(totals);

  Json tenant_array = Json::Array();
  for (const auto& tenant : tenants) {
    Json entry = Json::Object();
    entry["tenant"] = tenant.name;
    entry["arrivals"] = tenant.arrivals;
    entry["dispatched"] = tenant.dispatched;
    entry["queued"] = tenant.queued;
    entry["shed"] = tenant.shed;
    entry["completed"] = tenant.completed;
    entry["failed"] = tenant.failed;
    entry["queries_per_sec"] = tenant.queries_per_sec;
    entry["p50_ms"] = tenant.p50_ms;
    entry["p99_ms"] = tenant.p99_ms;
    entry["queue_p99_ms"] = tenant.queue_p99_ms;
    entry["cost_usd"] = tenant.cost_usd;
    entry["cost_per_1k_usd"] = tenant.cost_per_1k_usd;
    entry["peak_in_flight"] = tenant.peak_in_flight;
    Json class_array = Json::Array();
    for (const auto& slice : tenant.classes) {
      class_array.Append(SliceToJson(slice));
    }
    entry["classes"] = std::move(class_array);
    tenant_array.Append(std::move(entry));
  }
  json["tenants"] = std::move(tenant_array);

  Json class_array = Json::Array();
  for (const auto& slice : classes) class_array.Append(SliceToJson(slice));
  json["classes"] = std::move(class_array);

  Json samples = Json::Array();
  for (const auto& sample : timeline) {
    Json entry = Json::Object();
    entry["t_s"] = sample.t_s;
    entry["in_flight"] = sample.in_flight;
    entry["backlog"] = sample.backlog;
    entry["fleet_active"] = sample.fleet_active;
    samples.Append(std::move(entry));
  }
  json["timeline"] = std::move(samples);
  return json;
}

std::string RenderSloTable(const ServingReport& report) {
  const std::vector<std::string> headers = {
      "tenant", "arrivals", "disp", "queued", "shed",  "done",
      "fail",   "qps",      "p50 ms", "p99 ms", "q p99", "USD/1k"};
  std::vector<std::vector<std::string>> rows;
  auto add_row = [&rows](const std::string& name, int64_t arrivals,
                         int64_t dispatched, int64_t queued, int64_t shed,
                         int64_t completed, int64_t failed, double qps,
                         double p50, double p99, double queue_p99,
                         double cost_per_1k) {
    rows.push_back({name, std::to_string(arrivals),
                    std::to_string(dispatched), std::to_string(queued),
                    std::to_string(shed), std::to_string(completed),
                    std::to_string(failed), StrFormat("%.2f", qps),
                    StrFormat("%.0f", p50), StrFormat("%.0f", p99),
                    StrFormat("%.0f", queue_p99),
                    StrFormat("%.4f", cost_per_1k)});
  };
  for (const auto& tenant : report.tenants) {
    add_row(tenant.name, tenant.arrivals, tenant.dispatched, tenant.queued,
            tenant.shed, tenant.completed, tenant.failed,
            tenant.queries_per_sec, tenant.p50_ms, tenant.p99_ms,
            tenant.queue_p99_ms, tenant.cost_per_1k_usd);
  }
  int64_t total_queued = 0;
  for (const auto& tenant : report.tenants) total_queued += tenant.queued;
  add_row("TOTAL", report.total_arrivals, report.total_dispatched,
          total_queued, report.total_shed, report.total_completed,
          report.total_failed, report.queries_per_sec, 0, report.p99_ms, 0,
          report.cost_per_1k_usd);

  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) line += "  ";
      line += std::string(widths[c] - cells[c].size(), ' ') + cells[c];
    }
    return line + "\n";
  };
  std::string out = render_row(headers);
  size_t total_width = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total_width += widths[c] + (c > 0 ? 2 : 0);
  }
  out += std::string(total_width, '-') + "\n";
  for (const auto& row : rows) out += render_row(row);
  return out;
}

}  // namespace skyrise::serving
