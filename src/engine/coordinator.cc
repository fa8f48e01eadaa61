#include "engine/coordinator.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "common/string_util.h"
#include "datagen/dataset.h"
#include "pricing/break_even.h"

namespace skyrise::engine {

namespace {

/// Latency of issuing one Invoke API call from inside a function. Makes the
/// two-level invocation procedure (Section 3.2) matter: fanning 1,000 calls
/// from one coordinator serializes ~2 s of dispatch, while two levels of 32
/// dispatch in ~130 ms.
constexpr SimDuration kInvokeDispatchLatency = Millis(2);

/// Scheduling wave width: direct dispatch holds at most this many
/// invocations in flight per stage.
constexpr int kMaxParallelism = 10000;

/// Pause before re-invoking a failed fragment, times its attempt count.
constexpr SimDuration kWorkerRetryBackoff = Millis(100);

/// Graceful degradation: when the query's retry budget has drained below
/// this fraction of its initial size at stage start, scan stages pack
/// `kDegradeFanoutFactor` times as many partitions per worker (fewer,
/// larger fragments: less invoke and shuffle pressure at the cost of
/// per-stage latency).
constexpr double kDegradeBudgetFraction = 0.25;
constexpr int kDegradeFanoutFactor = 2;

class CoordinatorTask : public std::enable_shared_from_this<CoordinatorTask> {
 public:
  CoordinatorTask(EngineContext* ec,
                  std::shared_ptr<faas::FunctionContext> fctx)
      : ec_(ec), fctx_(std::move(fctx)) {}

  void Run() {
    start_ = Now();
    tracer_ = fctx_->tracer();
    metrics_ = fctx_->metrics();
    const Json& payload = fctx_->payload();
    query_id_ = payload.GetString("query_id");
    partitions_per_worker_ = static_cast<int>(
        payload.GetInt("partitions_per_worker", ec_->partitions_per_worker));
    if (tracer_ != nullptr) {
      query_span_ = tracer_->Begin("coordinator", "query " + query_id_,
                                   "engine", fctx_->span());
      tracer_->SetArg(query_span_, "query_id", Json(query_id_));
      plan_span_ = tracer_->Begin("coordinator", "plan", "engine",
                                  query_span_);
    }
    auto plan = QueryPlan::FromJson(payload.Get("plan"));
    if (!plan.ok()) {
      Fail(plan.status());
      return;
    }
    plan_ = std::make_shared<const QueryPlan>(std::move(plan).ValueUnsafe());

    // Overload-robustness setup: resolve the query deadline (propagated as
    // an absolute "deadline_us", or derived from policy when invoked
    // without one), mint the per-query retry-token pool, and publish both,
    // with the parsed plan, on the context for the workers this query is
    // about to launch.
    deadline_ = Deadline::At(payload.GetInt("deadline_us", 0));
    if (!deadline_.bounded() && ec_->query_deadline > 0) {
      deadline_ = Deadline::After(Now(), ec_->query_deadline);
    }
    if (ec_->retry_budget_tokens > 0) {
      RetryBudget::Options budget_options;
      budget_options.initial_tokens = ec_->retry_budget_tokens;
      budget_options.refund_per_success = ec_->retry_budget_refund;
      budget_ = std::make_unique<RetryBudget>(budget_options);
    }
    ec_->query_grants[query_id_] =
        EngineContext::QueryGrants{budget_.get(), deadline_, plan_};
    storage_observer_ = InstallBreakerObserver(ec_->storage_breaker);
    invoke_observer_ = InstallBreakerObserver(ec_->invoke_breaker);
    if (deadline_.bounded()) {
      // Fires one tick before the platform's clamped execution timeout
      // would kill this coordinator, so the query fails typed with spans
      // closed instead of being torn down mid-flight.
      const SimDuration lead =
          std::max<SimDuration>(0, deadline_.Remaining(Now()) - 1);
      auto self = shared_from_this();
      deadline_event_ =
          ec_->env->Schedule(lead, [self] { self->OnDeadline(); });
    }

    client_ = std::make_unique<storage::RetryClient>(
        ec_->env, ec_->table_store, ec_->retry, 0x7777);
    storage_ctx_.nic = fctx_->nic();
    storage_ctx_.fabric = fctx_->fabric();
    storage_ctx_.meter = ec_->meter;
    storage_ctx_.tracer = tracer_;
    storage_ctx_.span = plan_span_;
    storage_ctx_.metrics = metrics_;
    storage_ctx_.deadline = deadline_;
    storage_ctx_.retry_budget = budget_.get();
    storage_ctx_.breaker = ec_->storage_breaker;

    // Collect referenced tables.
    for (const auto& pipeline : plan_->pipelines) {
      for (const auto& input : pipeline.inputs) {
        if (input.type == InputSpec::Type::kTable) {
          tables_.insert(input.table);
        }
      }
    }
    FetchNextManifest(tables_.begin());
  }

 private:
  SimTime Now() const { return ec_->env->now(); }

  void Fail(Status status) {
    if (done_) return;
    done_ = true;
    Cleanup();
    if (tracer_ != nullptr) {
      tracer_->EndWith(plan_span_, "error");
      tracer_->EndWith(query_span_, "error");
    }
    fctx_->FinishError(std::move(status));
  }

  /// Emits breaker state transitions as obs instants/counters for the
  /// duration of this query (removed again in Cleanup). Each in-flight
  /// query registers its own observer, parented to its own query span, so
  /// interleaved queries all see shared-breaker transitions. Returns the
  /// observer handle, or 0 when no breaker is wired.
  int InstallBreakerObserver(CircuitBreaker* breaker) {
    if (breaker == nullptr) return 0;
    obs::Tracer* tracer = tracer_;
    obs::MetricsRegistry* metrics = metrics_;
    const obs::SpanId parent = query_span_;
    const std::string name = breaker->options().name;
    // The handle is only known after AddObserver returns; publish it to the
    // callback through shared state so the oldest live observer can elect
    // itself sole counter emitter (instants stay per-query).
    auto handle_holder = std::make_shared<int>(0);
    const int handle = breaker->AddObserver(
        [tracer, metrics, parent, name, breaker, handle_holder](
            CircuitBreaker::State from, CircuitBreaker::State to, SimTime) {
          if (tracer != nullptr) {
            tracer->Instant("breaker",
                            name + " " + CircuitBreaker::StateName(from) +
                                " -> " + CircuitBreaker::StateName(to),
                            "engine", parent);
          }
          if (metrics != nullptr &&
              breaker->IsOldestObserver(*handle_holder)) {
            metrics->Add("breaker." + name + "." +
                         CircuitBreaker::StateName(to));
          }
        });
    *handle_holder = handle;
    return handle;
  }

  /// Tears down per-query robustness state exactly once: the deadline
  /// timer, this query's published grants (workers must not read a dead
  /// query's pool; running workers keep their own reference to the plan),
  /// this query's breaker observers (other in-flight
  /// queries keep theirs), and — on abnormal exits — the still open stage
  /// span and its speculation timer.
  void Cleanup() {
    ec_->env->Cancel(deadline_event_);
    deadline_event_ = sim::kInvalidEventId;
    ec_->query_grants.erase(query_id_);
    if (ec_->storage_breaker != nullptr && storage_observer_ != 0) {
      ec_->storage_breaker->RemoveObserver(storage_observer_);
      storage_observer_ = 0;
    }
    if (ec_->invoke_breaker != nullptr && invoke_observer_ != 0) {
      ec_->invoke_breaker->RemoveObserver(invoke_observer_);
      invoke_observer_ = 0;
    }
    if (current_stage_ != nullptr && !current_stage_->failed) {
      ec_->env->Cancel(current_stage_->spec_timer);
      if (tracer_ != nullptr) {
        tracer_->EndWith(current_stage_->span, "error");
      }
      current_stage_->failed = true;
    }
    current_stage_ = nullptr;
  }

  /// The query's end-to-end deadline expired with work still in flight:
  /// fail typed (the late workers' attempt spans close as their outcomes
  /// drain; the platforms kill their executions at the same clamped time).
  void OnDeadline() {
    if (done_) return;
    if (tracer_ != nullptr) {
      tracer_->Instant("coordinator", "query.deadline_exceeded", "engine",
                       query_span_);
    }
    if (metrics_ != nullptr) metrics_->Add("coord.deadline_failures");
    Fail(Status::DeadlineExceeded(
        "query " + query_id_ + " exceeded its deadline after " +
        std::to_string(static_cast<long long>(ToMillis(Now() - start_))) +
        " ms"));
  }

  void FetchNextManifest(std::set<std::string>::iterator it) {
    if (it == tables_.end()) {
      ScheduleStages();
      return;
    }
    const std::string table = *it;
    auto self = shared_from_this();
    client_->Get(datagen::DatasetManifestKey(table), storage_ctx_,
                 [self, it, table](Result<storage::Blob> result) mutable {
                   if (!result.ok()) {
                     self->Fail(result.status());
                     return;
                   }
                   // Synthetic-manifest datasets are not supported: the
                   // manifest object is always real JSON. Its parse is
                   // shared with every query that read the same bytes.
                   auto info = self->ec_->manifests.Parse(result->bytes());
                   if (!info.ok()) {
                     self->Fail(info.status());
                     return;
                   }
                   self->manifests_[table] = std::move(info).ValueUnsafe();
                   self->FetchNextManifest(++it);
                 });
  }

  // --- Distributed plan compilation and stage-wise scheduling. ---

  void ScheduleStages() {
    // Topological order over pipeline dependencies.
    std::set<int> done;
    std::vector<const PipelineSpec*> order;
    while (order.size() < plan_->pipelines.size()) {
      bool progress = false;
      for (const auto& pipeline : plan_->pipelines) {
        if (done.count(pipeline.id) > 0) continue;
        bool ready = true;
        for (int dep : pipeline.depends_on) {
          if (done.count(dep) == 0) ready = false;
        }
        if (ready) {
          order.push_back(&pipeline);
          done.insert(pipeline.id);
          progress = true;
        }
      }
      if (!progress) {
        Fail(Status::InvalidArgument("cyclic pipeline dependencies"));
        return;
      }
    }
    stages_ = std::move(order);
    if (tracer_ != nullptr) tracer_->End(plan_span_);
    RunStage(0);
  }

  int FragmentsFor(const PipelineSpec& pipeline) {
    const InputSpec& stream = pipeline.inputs[0];
    if (stream.type == InputSpec::Type::kShuffle) {
      // One fragment per upstream shuffle partition.
      const PipelineSpec* upstream =
          plan_->FindPipeline(stream.upstream_pipeline);
      SKYRISE_CHECK(upstream != nullptr);
      for (const auto& op : upstream->ops) {
        if (op.op == "partition_write") return op.partition_count;
      }
      return 1;
    }
    const auto it = manifests_.find(stream.table);
    SKYRISE_CHECK(it != manifests_.end());
    const int files = static_cast<int>(it->second->partitions.size());
    int ppw = partitions_per_worker_;
    if (ppw <= 0) ppw = MemoryAwarePartitionsPerWorker(*it->second);
    // Degraded scan stages pack more partitions per worker: less invoke and
    // retry pressure at the cost of per-stage latency. Shuffle-consuming
    // stages are pinned to the upstream partition count and cannot shrink.
    if (degrade_) ppw *= kDegradeFanoutFactor;
    return std::max(1, (files + ppw - 1) / ppw);
  }

  /// Memory-aware scan sizing: assign table partitions per worker so the
  /// streamed input stays within a quarter of the deployed Lambda allocation.
  /// Morsel execution keeps only one decoded row group plus breaker state
  /// resident, but build-side broadcasts and output buffers still scale with
  /// the assignment, so the budget is conservative. Workers report their
  /// actual peak back, closing the loop via recommended_memory_mib.
  int MemoryAwarePartitionsPerWorker(const datagen::DatasetInfo& info) {
    const int64_t budget =
        static_cast<int64_t>(ec_->worker_memory_mib) * kMiB / 4;
    int64_t total_bytes = 0;
    for (const auto& p : info.partitions) total_bytes += p.size_bytes;
    const int files = static_cast<int>(info.partitions.size());
    if (files == 0 || total_bytes == 0) return 1;
    const int64_t avg = std::max<int64_t>(1, total_bytes / files);
    return static_cast<int>(
        std::clamp<int64_t>(budget / avg, 1, std::max(1, files)));
  }

  /// The coordinator payload's JSON of `pipeline`, which `plan_` was
  /// parsed from. Worker payloads carry it as is: Json copies share their
  /// objects, so no stage serializes its pipeline again.
  const Json& PipelineJson(const PipelineSpec& pipeline) const {
    const size_t index =
        static_cast<size_t>(&pipeline - plan_->pipelines.data());
    return fctx_->payload().Get("plan").Get("pipelines").AsArray()[index];
  }

  Json BuildWorkerPayload(const PipelineSpec& pipeline,
                          const Json& pipeline_json, int fragment,
                          int fragments) {
    std::vector<WorkerInputAssignment> assignments;
    for (size_t i = 0; i < pipeline.inputs.size(); ++i) {
      const InputSpec& input = pipeline.inputs[i];
      WorkerInputAssignment assignment;
      if (input.type == InputSpec::Type::kTable) {
        const auto& parts = manifests_.at(input.table)->partitions;
        const int n = static_cast<int>(parts.size());
        if (i == 0) {
          // Streamed input: contiguous slice of the partition list.
          const int begin = n * fragment / fragments;
          const int end = n * (fragment + 1) / fragments;
          for (int p = begin; p < end; ++p) {
            assignment.files.push_back(
                TableFileAssignment{parts[static_cast<size_t>(p)].key,
                                    parts[static_cast<size_t>(p)].size_bytes});
          }
        } else {
          // Build input: broadcast all files to every fragment.
          for (const auto& p : parts) {
            assignment.files.push_back(
                TableFileAssignment{p.key, p.size_bytes});
          }
        }
      } else {
        assignment.upstream_fragments =
            fragments_of_.at(input.upstream_pipeline);
      }
      assignments.push_back(std::move(assignment));
    }
    Json payload =
        WorkerPayload(query_id_, pipeline_json, fragment, assignments);
    payload["barrier_participants"] = fragments;
    // Workers inherit the query deadline; the platform clamps their
    // execution timeout against it and their storage clients stop retrying
    // past it.
    if (deadline_.bounded()) payload["deadline_us"] = deadline_.at_or_zero();
    return payload;
  }

  // Per-fragment attempt bookkeeping. A fragment may have several attempts
  // in flight at once (retry racing a straggler, or a speculative copy);
  // the first successful completion wins, later outcomes are ignored.
  // Worker execution is deterministic and shuffle writes replace whole
  // objects under attempt-independent keys, so duplicates are idempotent.
  struct FragmentState {
    Json payload;
    int attempts = 0;     ///< Invocations launched (first + retry + spec).
    int outstanding = 0;  ///< Invocations currently in flight.
    bool completed = false;
    SimTime last_dispatch = 0;
    std::string last_error;
  };

  struct StageState {
    size_t index = 0;
    const PipelineSpec* pipeline = nullptr;
    int fragments = 0;
    SimTime start = 0;
    std::vector<FragmentState> frags;
    std::deque<int> pending;  ///< Fragment indices awaiting first dispatch.
    int running = 0;          ///< In-flight invocations across fragments.
    int completed = 0;        ///< Completed fragments.
    int peak_running = 0;
    bool failed = false;
    double worker_ms = 0;
    int64_t requests = 0;
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
    int cold_starts = 0;
    int retries = 0;        ///< Re-invocations after a failed attempt.
    int speculative = 0;    ///< Straggler duplicates launched.
    int worker_errors = 0;  ///< Failed attempts observed (all causes).
    int64_t peak_memory = 0;  ///< Max resident bytes over the stage's workers.
    int64_t batches = 0;      ///< Morsels processed across the stage.
    bool degraded = false;  ///< Scheduled with degraded (reduced) fan-out.
    /// Two-level dispatch: fragment indices per invoker, issued in order.
    std::vector<std::vector<int>> invoker_batches;
    sim::EventId spec_timer = sim::kInvalidEventId;
    obs::SpanId span = obs::kNoSpan;  ///< "stage p<id>" span.
  };

  void RunStage(size_t stage_index) {
    if (stage_index >= stages_.size()) {
      Finish();
      return;
    }
    const PipelineSpec& pipeline = *stages_[stage_index];
    // Invoke-path breaker: with the worker-invocation service open,
    // launching a stage's fan-out would only pile on load. Shed typed with
    // a retry-after hint instead of hanging the query.
    if (ec_->invoke_breaker != nullptr &&
        !ec_->invoke_breaker->Allow(Now())) {
      if (metrics_ != nullptr) metrics_->Add("coord.breaker_sheds");
      Fail(Status::ResourceExhausted(StrFormat(
          "invoke circuit open at stage p%d; retry after %lld us",
          pipeline.id,
          static_cast<long long>(ec_->invoke_breaker->RetryAfter(Now())))));
      return;
    }
    // Graceful degradation: a drained retry pool means the fault storm is
    // winning — trade stage latency for pressure before the pool empties.
    degrade_ = budget_ != nullptr &&
               budget_->tokens() < kDegradeBudgetFraction *
                                       budget_->options().initial_tokens;
    const int fragments = FragmentsFor(pipeline);
    fragments_of_[pipeline.id] = fragments;
    auto state = std::make_shared<StageState>();
    state->index = stage_index;
    state->pipeline = &pipeline;
    state->fragments = fragments;
    state->start = Now();
    state->degraded = degrade_;
    if (degrade_) {
      ++degraded_stages_;
      if (metrics_ != nullptr) metrics_->Add("coord.degraded_stages");
      if (tracer_ != nullptr) {
        tracer_->Instant("coordinator",
                         StrFormat("stage p%d degraded fan-out", pipeline.id),
                         "engine", query_span_);
      }
    }
    current_stage_ = state;
    if (tracer_ != nullptr) {
      state->span = tracer_->Begin(
          "coordinator", StrFormat("stage p%d", pipeline.id), "engine",
          query_span_);
    }
    state->frags.resize(static_cast<size_t>(fragments));
    const Json& pipeline_json = PipelineJson(pipeline);
    for (int f = 0; f < fragments; ++f) {
      state->frags[static_cast<size_t>(f)].payload =
          BuildWorkerPayload(pipeline, pipeline_json, f, fragments);
      state->pending.push_back(f);
    }
    ScheduleSpeculationSweep(state);
    if (fragments >= ec_->two_level_threshold) {
      DispatchTwoLevel(state);
    } else {
      DispatchDirect(state);
    }
  }

  /// Attempt-launch bookkeeping shared by direct, two-level, retry, and
  /// speculative dispatch paths.
  void NoteLaunch(const std::shared_ptr<StageState>& state, int f) {
    FragmentState& frag = state->frags[static_cast<size_t>(f)];
    ++frag.attempts;
    ++frag.outstanding;
    frag.last_dispatch = Now();
    ++state->running;
    state->peak_running = std::max(state->peak_running, state->running);
  }

  /// Opens an attempt span for fragment `f` (track "fragments") and stamps
  /// its id into `payload` as "trace_parent", so the platform's invoke span
  /// — and the worker's phase spans — nest under this attempt.
  obs::SpanId BeginAttempt(const std::shared_ptr<StageState>& state, int f,
                           Json* payload) {
    if (tracer_ == nullptr) return obs::kNoSpan;
    const obs::SpanId span = tracer_->Begin(
        "fragments",
        StrFormat("f%d a%d", f, state->frags[static_cast<size_t>(f)].attempts),
        "engine", state->span);
    (*payload)["trace_parent"] = span;
    return span;
  }

  /// Launches one attempt of fragment `f` directly on the worker platform.
  void InvokeFragment(std::shared_ptr<StageState> state, int f) {
    NoteLaunch(state, f);
    auto self = shared_from_this();
    Json payload = state->frags[static_cast<size_t>(f)].payload;
    const obs::SpanId attempt_span = BeginAttempt(state, f, &payload);
    // `attempt_span` is a tracing id, not retry state, and the invocation is
    // bounded end to end by the propagated "deadline_us" in the payload (the
    // platform clamps execution lifetime to it — see faas/ec2_fleet.cc /
    // lambda_platform.cc). skyrise-check: allow(unbounded-retry-wrapper)
    ec_->worker_platform->Invoke(
        kWorkerFunction, std::move(payload),
        [self, state, f, attempt_span](Result<Json> r) {
          self->OnWorkerOutcome(state, f, attempt_span, std::move(r));
        });
  }

  void DispatchDirect(std::shared_ptr<StageState> state) {
    auto self = shared_from_this();
    // Serialized dispatch: one Invoke API call per kInvokeDispatchLatency,
    // capped by the scheduling wave width. Retries and speculative copies
    // bypass the wave (they go out as soon as they are due).
    if (state->failed) return;
    if (state->pending.empty()) return;
    if (state->running >= kMaxParallelism) return;  // Wave is full.
    const int f = state->pending.front();
    state->pending.pop_front();
    InvokeFragment(state, f);
    ec_->env->Schedule(kInvokeDispatchLatency,
                       [self, state] { self->DispatchDirect(state); });
  }

  void DispatchTwoLevel(const std::shared_ptr<StageState>& state) {
    // Group fragments into invoker batches and dispatch those serially; each
    // invoker fans out its batch in parallel with the others. Responses are
    // routed back to fragments by the "fragment" field, so individual worker
    // failures inside a batch retry per-fragment, not per-batch.
    while (!state->pending.empty()) {
      std::vector<int> members;
      for (int i = 0; i < ec_->invoker_fanout && !state->pending.empty();
           ++i) {
        const int f = state->pending.front();
        state->pending.pop_front();
        members.push_back(f);
      }
      state->invoker_batches.push_back(std::move(members));
    }
    IssueInvokerBatch(state, 0);
  }

  void IssueInvokerBatch(const std::shared_ptr<StageState>& state, size_t i) {
    if (i >= state->invoker_batches.size() || state->failed) return;
    const std::vector<int>& members = state->invoker_batches[i];
    // The batch payload is assembled at issue time so each member carries
    // a fresh attempt span as its trace parent; the invoker's own invoke
    // span nests under the stage.
    Json batch = Json::Object();
    Json payloads = Json::Array();
    auto attempt_spans = std::make_shared<std::map<int, obs::SpanId>>();
    for (int f : members) {
      NoteLaunch(state, f);
      Json payload = state->frags[static_cast<size_t>(f)].payload;
      (*attempt_spans)[f] = BeginAttempt(state, f, &payload);
      payloads.Append(std::move(payload));
    }
    batch["payloads"] = std::move(payloads);
    if (deadline_.bounded()) batch["deadline_us"] = deadline_.at_or_zero();
    if (tracer_ != nullptr) batch["trace_parent"] = state->span;
    auto self = shared_from_this();
    ec_->worker_platform->Invoke(
        kInvokerFunction, std::move(batch),
        [self, state, members, attempt_spans](Result<Json> r) {
          if (r.ok()) {
            // The invoker returns the collected worker responses (including
            // per-fragment error entries), routed by fragment index. Each
            // member takes its first response; entries for fragments outside
            // the batch, and repeats, are ignored. A member left unanswered
            // fails and retries, as when the invoker dies.
            const Json& responses = r->Get("responses");
            if (responses.is_array()) {
              std::vector<bool> answered(members.size(), false);
              for (const auto& response : responses.AsArray()) {
                const int f =
                    static_cast<int>(response.GetInt("fragment", -1));
                const size_t m = static_cast<size_t>(
                    std::find(members.begin(), members.end(), f) -
                    members.begin());
                if (m == members.size() || answered[m]) continue;
                answered[m] = true;
                self->OnWorkerOutcome(state, f, (*attempt_spans)[f],
                                      Json(response));
              }
              for (size_t m = 0; m < members.size(); ++m) {
                if (answered[m]) continue;
                self->OnWorkerOutcome(
                    state, members[m], (*attempt_spans)[members[m]],
                    Status::InvalidArgument(
                        StrFormat("invoker response lacks fragment %d",
                                  members[m])));
              }
              return;
            }
          }
          // The invoker itself died (crash/timeout) or answered without its
          // response list: every fragment of the batch failed; each retries
          // independently.
          const Status failed =
              r.ok() ? Status::InvalidArgument(
                           "invoker response lacks responses")
                     : r.status();
          for (int f : members) {
            self->OnWorkerOutcome(state, f, (*attempt_spans)[f], failed);
          }
        });
    ec_->env->Schedule(kInvokeDispatchLatency, [self, state, i] {
      self->IssueInvokerBatch(state, i + 1);
    });
  }

  void OnWorkerOutcome(std::shared_ptr<StageState> state, int f,
                       obs::SpanId attempt_span, Result<Json> result) {
    FragmentState& frag = state->frags[static_cast<size_t>(f)];
    --frag.outstanding;
    --state->running;
    const bool ok = result.ok() && !result->Has("error");
    // The attempt span closes whenever its callback fires, even for late
    // duplicates or outcomes arriving after the stage already failed.
    if (tracer_ != nullptr) {
      tracer_->EndWith(attempt_span, ok ? "ok" : "error");
    }
    // Worker-attempt outcomes are the invoke path's health signal; feed the
    // breaker even for late/post-failure arrivals (service-level state).
    if (ec_->invoke_breaker != nullptr) {
      if (ok) {
        ec_->invoke_breaker->RecordSuccess(Now());
      } else {
        ec_->invoke_breaker->RecordFailure(Now());
      }
    }
    if (state->failed || done_) return;
    if (ok) {
      if (!frag.completed) {
        frag.completed = true;
        ++state->completed;
        const Json& response = *result;
        state->worker_ms += response.GetDouble("duration_ms");
        state->requests += response.GetInt("requests");
        state->bytes_read += response.GetInt("bytes_read");
        state->bytes_written += response.GetInt("bytes_written");
        state->cold_starts += response.GetBool("cold_start") ? 1 : 0;
        state->peak_memory = std::max(
            state->peak_memory, response.GetInt("peak_memory_bytes", 0));
        state->batches += response.GetInt("batches", 0);
        if (state->completed == state->fragments) {
          FinishStage(state);
          return;
        }
      }
      // else: duplicate completion of a retried/speculated fragment; the
      // first attempt's stats already counted.
    } else {
      ++state->worker_errors;
      frag.last_error = result.ok() ? result->GetString("error")
                                    : result.status().ToString();
      if (!frag.completed && frag.outstanding == 0) {
        // No other attempt can still save this fragment: retry or give up.
        if (frag.attempts >= ec_->worker_max_attempts) {
          state->failed = true;
          ec_->env->Cancel(state->spec_timer);
          if (tracer_ != nullptr) tracer_->EndWith(state->span, "error");
          Fail(Status::Internal(
              "pipeline " + std::to_string(state->pipeline->id) +
              " fragment " + std::to_string(f) + " failed after " +
              std::to_string(frag.attempts) +
              " attempts: " + frag.last_error));
          return;
        }
        // Every re-invocation draws from the query's shared retry pool; an
        // empty pool means retries across all layers have hit their cap, so
        // shed typed rather than amplify the fault storm.
        if (budget_ != nullptr && !budget_->TryAcquire()) {
          state->failed = true;
          ec_->env->Cancel(state->spec_timer);
          if (tracer_ != nullptr) tracer_->EndWith(state->span, "error");
          if (metrics_ != nullptr) metrics_->Add("coord.budget_sheds");
          Fail(Status::ResourceExhausted(
              "retry budget exhausted; pipeline " +
              std::to_string(state->pipeline->id) + " fragment " +
              std::to_string(f) + " failed after " +
              std::to_string(frag.attempts) +
              " attempts: " + frag.last_error));
          return;
        }
        ++state->retries;
        auto self = shared_from_this();
        const SimDuration backoff = kWorkerRetryBackoff * frag.attempts;
        ec_->env->Schedule(backoff, [self, state, f] {
          if (state->failed || self->done_) return;
          if (state->frags[static_cast<size_t>(f)].completed) return;
          // The breaker may have opened while this retry waited out its
          // backoff; re-check at dispatch time.
          CircuitBreaker* breaker = self->ec_->invoke_breaker;
          if (breaker != nullptr && !breaker->Allow(self->Now())) {
            state->failed = true;
            self->ec_->env->Cancel(state->spec_timer);
            if (self->tracer_ != nullptr) {
              self->tracer_->EndWith(state->span, "error");
            }
            if (self->metrics_ != nullptr) {
              self->metrics_->Add("coord.breaker_sheds");
            }
            self->Fail(Status::ResourceExhausted(StrFormat(
                "invoke circuit open on retry of fragment %d; retry after "
                "%lld us",
                f, static_cast<long long>(breaker->RetryAfter(self->Now())))));
            return;
          }
          self->InvokeFragment(state, f);
        });
      }
      // else: a concurrent attempt (speculative copy or racing retry) is
      // still in flight; its outcome decides what happens next.
    }
    // A slot freed up: continue dispatching the wave.
    if (state->fragments < ec_->two_level_threshold) DispatchDirect(state);
  }

  // --- Straggler speculation. ---

  void ScheduleSpeculationSweep(std::shared_ptr<StageState> state) {
    if (ec_->speculation_after <= 0) return;
    auto self = shared_from_this();
    state->spec_timer = ec_->env->Schedule(
        ec_->speculation_interval,
        [self, state] { self->SpeculationSweep(state); });
  }

  void SpeculationSweep(std::shared_ptr<StageState> state) {
    if (state->failed || done_ || state->completed == state->fragments) {
      return;
    }
    for (int f = 0; f < state->fragments; ++f) {
      FragmentState& frag = state->frags[static_cast<size_t>(f)];
      // Duplicate a straggler only when exactly one attempt is in flight
      // (never pile speculative copies on top of each other) and the
      // attempt budget allows a wasted duplicate.
      if (frag.completed || frag.outstanding != 1) continue;
      if (frag.attempts >= ec_->worker_max_attempts) continue;
      if (Now() - frag.last_dispatch < ec_->speculation_after) continue;
      // Speculative duplicates are discretionary retries: they draw from
      // the same pool, and an empty pool just skips speculation (the
      // original attempt is still in flight — nothing to fail).
      if (budget_ != nullptr && !budget_->TryAcquire()) break;
      ++state->speculative;
      InvokeFragment(state, f);
    }
    ScheduleSpeculationSweep(state);
  }

  void FinishStage(const std::shared_ptr<StageState>& state) {
    ec_->env->Cancel(state->spec_timer);
    Json summary = Json::Object();
    summary["pipeline"] = state->pipeline->id;
    summary["fragments"] = state->fragments;
    summary["runtime_ms"] = ToMillis(Now() - state->start);
    summary["worker_ms"] = state->worker_ms;
    summary["peak_workers"] = state->peak_running;
    summary["requests"] = state->requests;
    summary["bytes_read"] = state->bytes_read;
    summary["bytes_written"] = state->bytes_written;
    summary["cold_starts"] = state->cold_starts;
    summary["retries"] = state->retries;
    summary["speculative"] = state->speculative;
    summary["worker_errors"] = state->worker_errors;
    summary["peak_memory_bytes"] = state->peak_memory;
    summary["batches"] = state->batches;
    summary["degraded"] = state->degraded;
    if (tracer_ != nullptr) {
      tracer_->SetArg(state->span, "fragments", Json(state->fragments));
      tracer_->SetArg(state->span, "retries", Json(state->retries));
      tracer_->SetArg(state->span, "speculative", Json(state->speculative));
      tracer_->SetArg(state->span, "worker_errors",
                      Json(state->worker_errors));
      tracer_->SetArg(state->span, "batches", Json(state->batches));
      tracer_->SetArg(state->span, "peak_memory_bytes",
                      Json(state->peak_memory));
      tracer_->End(state->span);
    }
    if (metrics_ != nullptr) {
      metrics_->Add("coord.stages");
      metrics_->Add("coord.fragments", state->fragments);
      metrics_->Add("coord.retries", state->retries);
      metrics_->Add("coord.speculative", state->speculative);
      metrics_->Record("coord.stage_ms", ToMillis(Now() - state->start));
    }
    stage_summaries_.push_back(std::move(summary));
    cumulated_worker_ms_ += state->worker_ms;
    total_requests_ += state->requests;
    total_workers_ += state->fragments;
    peak_workers_ = std::max(peak_workers_, state->peak_running);
    worker_retries_ += state->retries;
    speculative_launches_ += state->speculative;
    worker_errors_ += state->worker_errors;
    peak_worker_memory_ = std::max(peak_worker_memory_, state->peak_memory);
    total_batches_ += state->batches;
    // The stage's span is closed and its timer cancelled; detach it before
    // Cleanup could mistake it for an in-flight stage.
    current_stage_ = nullptr;
    RunStage(state->index + 1);
  }

  void Finish() {
    if (done_) return;
    done_ = true;
    Cleanup();
    Json response = Json::Object();
    response["query"] = plan_->query_name;
    response["query_id"] = query_id_;
    response["result_key"] = ResultKey(query_id_);
    response["runtime_ms"] = ToMillis(Now() - start_);
    response["cumulated_worker_ms"] = cumulated_worker_ms_;
    response["total_workers"] = total_workers_;
    response["peak_workers"] = peak_workers_;
    response["requests"] = total_requests_;
    response["worker_retries"] = worker_retries_;
    response["speculative_launches"] = speculative_launches_;
    response["worker_errors"] = worker_errors_;
    response["peak_worker_memory_bytes"] = peak_worker_memory_;
    response["total_batches"] = total_batches_;
    response["degraded_stages"] = degraded_stages_;
    if (budget_ != nullptr) {
      Json budget = Json::Object();
      budget["initial_tokens"] = budget_->options().initial_tokens;
      budget["remaining_tokens"] = budget_->tokens();
      budget["acquired"] = budget_->stats().acquired;
      budget["denied"] = budget_->stats().denied;
      budget["refunded"] = budget_->stats().refunded;
      response["retry_budget"] = std::move(budget);
    }
    // Memory-config advice: the smallest Lambda size whose allocation covers
    // the observed peak resident bytes (Section 5 economics — memory is the
    // Lambda price dimension, so the peak directly sets the bill).
    response["recommended_memory_mib"] =
        pricing::RecommendLambdaMemoryMib(peak_worker_memory_);
    Json stages = Json::Array();
    for (auto& s : stage_summaries_) stages.Append(std::move(s));
    response["stages"] = std::move(stages);
    if (tracer_ != nullptr) tracer_->End(query_span_);
    fctx_->Finish(std::move(response));
  }

  EngineContext* ec_;
  std::shared_ptr<faas::FunctionContext> fctx_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanId query_span_ = obs::kNoSpan;
  obs::SpanId plan_span_ = obs::kNoSpan;
  std::unique_ptr<storage::RetryClient> client_;
  storage::ClientContext storage_ctx_;
  std::shared_ptr<const QueryPlan> plan_;  ///< Shared with the workers.
  std::string query_id_;
  int partitions_per_worker_ = 1;
  std::set<std::string> tables_;
  std::map<std::string, std::shared_ptr<const datagen::DatasetInfo>>
      manifests_;
  std::vector<const PipelineSpec*> stages_;
  std::map<int, int> fragments_of_;
  std::vector<Json> stage_summaries_;
  double cumulated_worker_ms_ = 0;
  int64_t total_requests_ = 0;
  int total_workers_ = 0;
  int peak_workers_ = 0;
  int worker_retries_ = 0;
  int speculative_launches_ = 0;
  int worker_errors_ = 0;
  int64_t peak_worker_memory_ = 0;
  int64_t total_batches_ = 0;
  SimTime start_ = 0;
  bool done_ = false;

  // Overload-robustness state (see DESIGN.md "Overload & degradation
  // model"). `deadline_` / `budget_` are minted in Run() and published on
  // the context for this query's workers; `current_stage_` tracks the one
  // in-flight stage so abnormal exits close its span.
  Deadline deadline_;
  std::unique_ptr<RetryBudget> budget_;
  sim::EventId deadline_event_ = sim::kInvalidEventId;
  int storage_observer_ = 0;  ///< Breaker observer handles (0 = none).
  int invoke_observer_ = 0;
  std::shared_ptr<StageState> current_stage_;
  int degraded_stages_ = 0;
  bool degrade_ = false;
};

class InvokerTask : public std::enable_shared_from_this<InvokerTask> {
 public:
  InvokerTask(EngineContext* ec, std::shared_ptr<faas::FunctionContext> fctx)
      : ec_(ec), fctx_(std::move(fctx)) {}

  void Run() {
    const Json& payloads = fctx_->payload().Get("payloads");
    if (!payloads.is_array()) {
      fctx_->FinishError(
          Status::InvalidArgument("invoker payload lacks payloads"));
      return;
    }
    payloads_ = &payloads.AsArray();
    total_ = static_cast<int>(payloads_->size());
    if (total_ == 0) {
      Finish();
      return;
    }
    responses_.resize(static_cast<size_t>(total_));
    Issue(0);
  }

 private:
  void Issue(size_t i) {
    if (i >= payloads_->size()) return;
    auto self = shared_from_this();
    const Json& payload = (*payloads_)[i];
    const int fragment = static_cast<int>(payload.GetInt("fragment", -1));
    ec_->worker_platform->Invoke(
        kWorkerFunction, payload, [self, i, fragment](Result<Json> r) {
          if (r.ok()) {
            self->responses_[i] = *r;
          } else {
            // A worker died under this invoker: report it per-fragment so
            // the coordinator retries just that fragment, not the batch.
            Json entry = Json::Object();
            entry["fragment"] = fragment;
            entry["error"] = r.status().ToString();
            self->responses_[i] = std::move(entry);
          }
          if (++self->completed_ == self->total_) self->Finish();
        });
    ec_->env->Schedule(kInvokeDispatchLatency,
                       [self, i] { self->Issue(i + 1); });
  }

  void Finish() {
    Json response = Json::Object();
    Json list = Json::Array();
    for (auto& r : responses_) list.Append(std::move(r));
    response["responses"] = std::move(list);
    fctx_->Finish(std::move(response));
  }

  EngineContext* ec_;
  std::shared_ptr<faas::FunctionContext> fctx_;
  const JsonArray* payloads_ = nullptr;  ///< In the invocation payload.
  std::vector<Json> responses_;
  int total_ = 0;
  int completed_ = 0;
};

}  // namespace

faas::FunctionHandler MakeCoordinatorHandler(EngineContext* context) {
  return [context](const std::shared_ptr<faas::FunctionContext>& fctx) {
    std::make_shared<CoordinatorTask>(context, fctx)->Run();
  };
}

faas::FunctionHandler MakeInvokerHandler(EngineContext* context) {
  return [context](const std::shared_ptr<faas::FunctionContext>& fctx) {
    std::make_shared<InvokerTask>(context, fctx)->Run();
  };
}

Json CoordinatorPayload(const QueryPlan& plan, const std::string& query_id,
                        int partitions_per_worker) {
  Json payload = Json::Object();
  payload["plan"] = plan.ToJson();
  payload["query_id"] = query_id;
  if (partitions_per_worker > 0) {
    payload["partitions_per_worker"] = partitions_per_worker;
  }
  return payload;
}

}  // namespace skyrise::engine
