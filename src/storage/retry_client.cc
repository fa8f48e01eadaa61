#include "storage/retry_client.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace skyrise::storage {

RetryClient::RetryClient(sim::SimEnvironment* env, StorageService* service,
                         const Options& options, uint64_t rng_stream)
    : env_(env),
      service_(service),
      opt_(options),
      rng_(env->ForkRng(rng_stream)),
      track_("storage/" + service->service_name()),
      metric_("storage." + service->service_name()),
      metric_prefix_(metric_.size()),
      serials_(std::make_shared<std::vector<uint32_t>>()) {}

RetryClient::~RetryClient() { serials_->clear(); }

SimDuration RetryClient::TimeoutFor(int64_t expected_bytes) const {
  SimDuration timeout = opt_.request_timeout;
  if (opt_.timeout_per_mib > 0 && expected_bytes > 0) {
    timeout += static_cast<SimDuration>(
        opt_.timeout_per_mib * (static_cast<double>(expected_bytes) / kMiB));
  }
  return timeout;
}

SimDuration RetryClient::BackoffDelay(int attempt) {
  const double factor = std::pow(2.0, attempt);
  const SimDuration ceiling = std::min<SimDuration>(
      opt_.backoff_cap,
      static_cast<SimDuration>(opt_.backoff_base * factor));
  if (!opt_.full_jitter) return ceiling;
  return static_cast<SimDuration>(rng_.NextDouble() *
                                  static_cast<double>(ceiling));
}

const std::string& RetryClient::Metric(const char* suffix) {
  metric_.resize(metric_prefix_);
  metric_ += suffix;
  return metric_;
}

uint32_t RetryClient::Open(const std::string& key, const ClientContext& ctx,
                           bool is_put) {
  uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(requests_.size());
    requests_.emplace_back();
    serials_->push_back(0);
  } else {
    free_head_ = requests_[slot].next_free;
  }
  Request& r = requests_[slot];
  r.is_put = is_put;
  r.attempt = 0;
  r.key = key;
  r.ctx = ctx;
  r.span = obs::kNoSpan;
  r.start = env_->now();
  return slot;
}

Status RetryClient::AdmitAttempt(uint32_t slot) {
  const Request& r = requests_[slot];
  const ClientContext& ctx = r.ctx;
  const SimTime now = env_->now();
  if (ctx.breaker != nullptr && !ctx.breaker->Allow(now)) {
    ++stats_.breaker_rejections;
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(Metric(".breaker_rejections"));
      ctx.metrics->Add(Metric(".permanent_failures"));
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(r.span, "shed", Json("breaker_open"));
      ctx.tracer->SetArg(r.span, "attempts", Json(r.attempt));
    }
    return Status::ResourceExhausted(StrFormat(
        "%s circuit open; retry after %lld us",
        ctx.breaker->options().name.c_str(),
        static_cast<long long>(ctx.breaker->RetryAfter(now))));
  }
  if (ctx.deadline.Expired(now)) {
    ++stats_.deadline_rejections;
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(Metric(".deadline_rejections"));
      ctx.metrics->Add(Metric(".permanent_failures"));
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(r.span, "shed", Json("deadline"));
      ctx.tracer->SetArg(r.span, "attempts", Json(r.attempt));
    }
    return Status::DeadlineExceeded("deadline expired before storage attempt");
  }
  return Status::OK();
}

void RetryClient::Get(const std::string& key, const ClientContext& ctx,
                      GetCallback callback) {
  GetRange(key, 0, -1, ctx, std::move(callback));
}

void RetryClient::GetRange(const std::string& key, int64_t offset,
                           int64_t length, const ClientContext& ctx,
                           GetCallback callback) {
  const uint32_t slot = Open(key, ctx, /*is_put=*/false);
  Request& r = requests_[slot];
  r.offset = offset;
  r.length = length;
  r.get_cb = std::move(callback);
  if (ctx.tracer != nullptr) {
    r.span = ctx.tracer->Begin(track_, "get " + key, "storage", ctx.span);
    ctx.tracer->SetArg(r.span, "key", Json(key));
    ctx.tracer->SetArg(r.span, "offset", Json(offset));
    ctx.tracer->SetArg(r.span, "length", Json(length));
  }
  StartAttempt(slot);
}

void RetryClient::Put(const std::string& key, Blob data,
                      const ClientContext& ctx, PutCallback callback) {
  const uint32_t slot = Open(key, ctx, /*is_put=*/true);
  Request& r = requests_[slot];
  r.data = std::move(data);
  r.put_cb = std::move(callback);
  if (ctx.tracer != nullptr) {
    r.span = ctx.tracer->Begin(track_, "put " + key, "storage", ctx.span);
    ctx.tracer->SetArg(r.span, "key", Json(key));
    ctx.tracer->SetArg(r.span, "bytes", Json(r.data.size()));
  }
  StartAttempt(slot);
}

void RetryClient::StartAttempt(uint32_t slot) {
  const uint32_t serial = (*serials_)[slot];
  if (Status admit = AdmitAttempt(slot); !admit.ok()) {
    // Shed before any work is issued; delivered asynchronously so callers
    // see the same callback discipline as a served request.
    env_->Schedule(0, [this, slot, serial, admit = std::move(admit)] {
      if (Claim(slot, serial)) Finish(slot, admit);
    });
    return;
  }
  Request& r = requests_[slot];
  const ClientContext& ctx = r.ctx;
  ++stats_.attempts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".attempts"));

  ClientContext attempt_ctx = ctx;
  const SimTime now = env_->now();
  r.attempt_start = now;
  if (ctx.tracer != nullptr) {
    r.attempt_span = ctx.tracer->Begin(
        track_, StrFormat("attempt %d", r.attempt + 1), "storage", r.span);
    attempt_ctx.span = r.attempt_span;
  }
  const int64_t expected_bytes =
      r.is_put ? r.data.size() : std::max<int64_t>(r.length, 0);
  const SimDuration timeout = ctx.deadline.Clamp(
      now, static_cast<SimDuration>(
               static_cast<double>(TimeoutFor(expected_bytes)) *
               std::pow(opt_.timeout_growth, r.attempt)));
  r.timeout_event = env_->Schedule(
      timeout, [this, slot, serial] { OnTimeout(slot, serial); });

  // Services never complete synchronously, so `r` stays valid for the
  // call. The completion checks the shared serial table before it touches
  // the client, which may be gone by the time a timed-out attempt answers.
  if (r.is_put) {
    service_->Put(r.key, r.data, attempt_ctx,
                  [this, serials = serials_, slot, serial](Status status) {
                    if (slot >= serials->size()) return;
                    OnResponse(slot, serial, std::move(status), Blob());
                  });
    return;
  }
  service_->GetRange(
      r.key, r.offset, r.length, attempt_ctx,
      [this, serials = serials_, slot, serial](Result<Blob> result) {
        if (slot >= serials->size()) return;
        if (!result.ok()) {
          OnResponse(slot, serial, result.status(), Blob());
          return;
        }
        OnResponse(slot, serial, Status::OK(),
                   std::move(result).ValueUnsafe());
      });
}

bool RetryClient::Claim(uint32_t slot, uint32_t serial) {
  uint32_t& current = (*serials_)[slot];
  if (current != serial) return false;
  ++current;
  return true;
}

void RetryClient::OnTimeout(uint32_t slot, uint32_t serial) {
  if (!Claim(slot, serial)) return;
  const ClientContext& ctx = requests_[slot].ctx;
  ++stats_.timeouts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".timeouts"));
  if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
  Settle(slot, "timeout");
  RetryOrFail(slot, Status::DeadlineExceeded("request timed out"));
}

void RetryClient::OnResponse(uint32_t slot, uint32_t serial, Status status,
                             Blob payload) {
  if (!Claim(slot, serial)) return;  // Timed out; stale response.
  const Request& r = requests_[slot];
  const ClientContext& ctx = r.ctx;
  env_->Cancel(r.timeout_event);
  if (status.ok()) {
    ++stats_.successes;
    if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".successes"));
    if (ctx.breaker != nullptr) ctx.breaker->RecordSuccess(env_->now());
    if (ctx.retry_budget != nullptr) ctx.retry_budget->RecordSuccess();
    Settle(slot, "ok");
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(r.span, "attempts", Json(r.attempt + 1));
    }
    Finish(slot, std::move(status), std::move(payload));
    return;
  }
  if (status.IsResourceExhausted()) {
    ++stats_.throttles;
    if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".throttles"));
  }
  if (status.IsRetriable()) {
    // Throttles (503 SlowDown), timeouts, and transient I/O errors
    // (500 InternalError) are worth another attempt.
    if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
    Settle(slot, status.IsResourceExhausted() ? "throttle" : "error");
    RetryOrFail(slot, std::move(status));
    return;
  }
  // NotFound, InvalidArgument, etc. will not heal with time: fail fast
  // instead of burning the retry budget.
  ++stats_.fail_fasts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".fail_fasts"));
  Settle(slot, "fail_fast");
  GiveUp(slot, std::move(status));
}

void RetryClient::OnBackoff(uint32_t slot, uint32_t serial) {
  if (!Claim(slot, serial)) return;
  Request& r = requests_[slot];
  if (r.ctx.tracer != nullptr) r.ctx.tracer->End(r.backoff_span);
  ++r.attempt;
  StartAttempt(slot);
}

void RetryClient::Settle(uint32_t slot, const char* outcome) {
  const Request& r = requests_[slot];
  if (r.ctx.tracer != nullptr) r.ctx.tracer->EndWith(r.attempt_span, outcome);
  if (r.ctx.metrics != nullptr) {
    r.ctx.metrics->Record(Metric(".attempt_ms"),
                          ToMillis(env_->now() - r.attempt_start));
  }
}

void RetryClient::RetryOrFail(uint32_t slot, Status error) {
  Request& r = requests_[slot];
  const ClientContext& ctx = r.ctx;
  if (r.attempt + 1 >= opt_.max_attempts) {
    GiveUp(slot, std::move(error));
    return;
  }
  const SimTime now = env_->now();
  if (ctx.deadline.Expired(now)) {
    ++stats_.deadline_rejections;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(Metric(".deadline_rejections"));
    }
    GiveUp(slot, Status::DeadlineExceeded(
                     StrFormat("deadline exhausted after %d attempts: ",
                               r.attempt + 1) +
                     error.message()));
    return;
  }
  if (ctx.retry_budget != nullptr && !ctx.retry_budget->TryAcquire()) {
    ++stats_.budget_denials;
    if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".budget_denials"));
    GiveUp(slot, Status::ResourceExhausted(
                     StrFormat("retry budget exhausted after %d attempts: ",
                               r.attempt + 1) +
                     error.message()));
    return;
  }
  if (ctx.metrics != nullptr) ctx.metrics->Add(Metric(".retries"));
  if (ctx.tracer != nullptr) {
    r.backoff_span = ctx.tracer->Begin(track_, "backoff", "storage", r.span);
  }
  const SimDuration wait = ctx.deadline.Clamp(now, BackoffDelay(r.attempt));
  const uint32_t serial = (*serials_)[slot];
  env_->Schedule(wait, [this, slot, serial] { OnBackoff(slot, serial); });
}

void RetryClient::GiveUp(uint32_t slot, Status status) {
  const Request& r = requests_[slot];
  ++stats_.permanent_failures;
  if (r.ctx.metrics != nullptr) {
    r.ctx.metrics->Add(Metric(".permanent_failures"));
  }
  if (r.ctx.tracer != nullptr) {
    r.ctx.tracer->SetArg(r.span, "attempts", Json(r.attempt + 1));
  }
  Finish(slot, std::move(status));
}

void RetryClient::Finish(uint32_t slot, Status status, Blob payload) {
  Request& r = requests_[slot];
  if (r.ctx.metrics != nullptr) {
    r.ctx.metrics->Record(Metric(".request_ms"),
                          ToMillis(env_->now() - r.start));
  }
  if (r.ctx.tracer != nullptr) {
    r.ctx.tracer->EndWith(r.span, status.ok() ? "ok" : "error");
  }
  // The callback may issue requests that take this slot or grow the
  // table, so the slot is freed before it runs.
  const bool is_put = r.is_put;
  GetCallback get_cb = std::exchange(r.get_cb, nullptr);
  PutCallback put_cb = std::exchange(r.put_cb, nullptr);
  r.data = Blob();
  r.next_free = free_head_;
  free_head_ = slot;
  if (is_put) {
    put_cb(std::move(status));
  } else if (status.ok()) {
    get_cb(std::move(payload));
  } else {
    get_cb(std::move(status));
  }
}

}  // namespace skyrise::storage
