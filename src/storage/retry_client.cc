#include "storage/retry_client.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace skyrise::storage {

namespace {

/// Shared between an in-flight attempt and its timeout event: whichever
/// fires first claims the attempt; the loser becomes a no-op.
struct AttemptGate {
  bool settled = false;
  bool Claim() {
    if (settled) return false;
    settled = true;
    return true;
  }
};

}  // namespace

RetryClient::RetryClient(sim::SimEnvironment* env, StorageService* service,
                         const Options& options, uint64_t rng_stream)
    : env_(env),
      service_(service),
      opt_(options),
      rng_(env->ForkRng(rng_stream)) {}

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

std::string RetryClient::Track() const {
  return "storage/" + service_->service_name();
}

std::string RetryClient::MetricPrefix() const {
  return "storage." + service_->service_name();
}

Status RetryClient::AdmitAttempt(const ClientContext& ctx, int attempt,
                                 obs::SpanId req_span) {
  const SimTime now = env_->now();
  if (ctx.breaker != nullptr && !ctx.breaker->Allow(now)) {
    ++stats_.breaker_rejections;
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".breaker_rejections");
      ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(req_span, "shed", Json("breaker_open"));
      ctx.tracer->SetArg(req_span, "attempts", Json(attempt));
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
      ctx.metrics->Add(MetricPrefix() + ".deadline_rejections");
      ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(req_span, "shed", Json("deadline"));
      ctx.tracer->SetArg(req_span, "attempts", Json(attempt));
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
  obs::SpanId req = obs::kNoSpan;
  if (ctx.tracer != nullptr) {
    req = ctx.tracer->Begin(Track(), "get " + key, "storage", ctx.span);
    ctx.tracer->SetArg(req, "key", Json(key));
    ctx.tracer->SetArg(req, "offset", Json(offset));
    ctx.tracer->SetArg(req, "length", Json(length));
  }
  if (ctx.tracer != nullptr || ctx.metrics != nullptr) {
    const SimTime req_start = env_->now();
    auto inner = std::make_shared<GetCallback>(std::move(callback));
    callback = [this, ctx, req, req_start, inner](Result<Blob> result) {
      if (ctx.metrics != nullptr) {
        ctx.metrics->Record(MetricPrefix() + ".request_ms",
                            ToMillis(env_->now() - req_start));
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->EndWith(req, result.ok() ? "ok" : "error");
      }
      (*inner)(std::move(result));
    };
  }
  AttemptGet(key, offset, length, ctx, 0, req, std::move(callback));
}

void RetryClient::AttemptGet(const std::string& key, int64_t offset,
                             int64_t length, const ClientContext& ctx,
                             int attempt, obs::SpanId req_span,
                             GetCallback callback) {
  if (Status admit = AdmitAttempt(ctx, attempt, req_span); !admit.ok()) {
    // Shed before any work is issued; delivered asynchronously so callers
    // see the same callback discipline as a served request.
    auto cb = std::make_shared<GetCallback>(std::move(callback));
    env_->Schedule(0, [cb, admit] { (*cb)(admit); });
    return;
  }
  ++stats_.attempts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".attempts");
  auto gate = std::make_shared<AttemptGate>();
  auto shared_cb = std::make_shared<GetCallback>(std::move(callback));

  ClientContext attempt_ctx = ctx;
  obs::SpanId att = obs::kNoSpan;
  const SimTime att_start = env_->now();
  if (ctx.tracer != nullptr) {
    att = ctx.tracer->Begin(Track(), StrFormat("attempt %d", attempt + 1),
                            "storage", req_span);
    attempt_ctx.span = att;
  }
  auto settle_attempt = [this, ctx, att, att_start](const char* outcome) {
    if (ctx.tracer != nullptr) ctx.tracer->EndWith(att, outcome);
    if (ctx.metrics != nullptr) {
      ctx.metrics->Record(MetricPrefix() + ".attempt_ms",
                          ToMillis(env_->now() - att_start));
    }
  };

  auto retry_or_fail = [this, key, offset, length, ctx, attempt, req_span,
                        shared_cb](Status error) {
    auto give_up = [this, &ctx, attempt, req_span, &shared_cb](Status fin) {
      ++stats_.permanent_failures;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
      }
      (*shared_cb)(std::move(fin));
    };
    if (attempt + 1 >= opt_.max_attempts) {
      give_up(std::move(error));
      return;
    }
    const SimTime now = env_->now();
    if (ctx.deadline.Expired(now)) {
      ++stats_.deadline_rejections;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".deadline_rejections");
      }
      give_up(Status::DeadlineExceeded(
          StrFormat("deadline exhausted after %d attempts: ", attempt + 1) +
          error.message()));
      return;
    }
    if (ctx.retry_budget != nullptr && !ctx.retry_budget->TryAcquire()) {
      ++stats_.budget_denials;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".budget_denials");
      }
      give_up(Status::ResourceExhausted(
          StrFormat("retry budget exhausted after %d attempts: ",
                    attempt + 1) +
          error.message()));
      return;
    }
    if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".retries");
    obs::SpanId backoff = obs::kNoSpan;
    if (ctx.tracer != nullptr) {
      backoff = ctx.tracer->Begin(Track(), "backoff", "storage", req_span);
    }
    const SimDuration wait = ctx.deadline.Clamp(now, BackoffDelay(attempt));
    env_->Schedule(wait, [this, key, offset, length, ctx, attempt, req_span,
                          backoff, shared_cb] {
      if (ctx.tracer != nullptr) ctx.tracer->End(backoff);
      AttemptGet(key, offset, length, ctx, attempt + 1, req_span,
                 std::move(*shared_cb));
    });
  };

  const SimDuration timeout = ctx.deadline.Clamp(
      env_->now(),
      static_cast<SimDuration>(
          static_cast<double>(TimeoutFor(length >= 0 ? length : 0)) *
          std::pow(opt_.timeout_growth, attempt)));
  const sim::EventId timeout_event = env_->Schedule(
      timeout, [this, ctx, gate, settle_attempt, retry_or_fail]() mutable {
        if (!gate->Claim()) return;
        ++stats_.timeouts;
        if (ctx.metrics != nullptr) {
          ctx.metrics->Add(MetricPrefix() + ".timeouts");
        }
        if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
        settle_attempt("timeout");
        retry_or_fail(Status::DeadlineExceeded("request timed out"));
      });

  service_->GetRange(
      key, offset, length, attempt_ctx,
      [this, ctx, attempt, req_span, gate, timeout_event, settle_attempt,
       retry_or_fail, shared_cb](Result<Blob> result) mutable {
        if (!gate->Claim()) return;  // Timed out; stale response.
        env_->Cancel(timeout_event);
        if (result.ok()) {
          ++stats_.successes;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".successes");
          }
          if (ctx.breaker != nullptr) ctx.breaker->RecordSuccess(env_->now());
          if (ctx.retry_budget != nullptr) ctx.retry_budget->RecordSuccess();
          settle_attempt("ok");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
          }
          (*shared_cb)(std::move(result));
          return;
        }
        Status st = result.status();
        if (st.IsResourceExhausted()) {
          ++stats_.throttles;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".throttles");
          }
        }
        if (st.IsRetriable()) {
          // Throttles (503 SlowDown), timeouts, and transient I/O errors
          // (500 InternalError) are worth another attempt.
          if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
          settle_attempt(st.IsResourceExhausted() ? "throttle" : "error");
          retry_or_fail(std::move(st));
        } else {
          // NotFound, InvalidArgument, etc. will not heal with time: fail
          // fast instead of burning the retry budget.
          ++stats_.fail_fasts;
          ++stats_.permanent_failures;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".fail_fasts");
            ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
          }
          settle_attempt("fail_fast");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
          }
          (*shared_cb)(std::move(st));
        }
      });
}

void RetryClient::Put(const std::string& key, Blob data,
                      const ClientContext& ctx, PutCallback callback) {
  obs::SpanId req = obs::kNoSpan;
  if (ctx.tracer != nullptr) {
    req = ctx.tracer->Begin(Track(), "put " + key, "storage", ctx.span);
    ctx.tracer->SetArg(req, "key", Json(key));
    ctx.tracer->SetArg(req, "bytes", Json(data.size()));
  }
  if (ctx.tracer != nullptr || ctx.metrics != nullptr) {
    const SimTime req_start = env_->now();
    auto inner = std::make_shared<PutCallback>(std::move(callback));
    callback = [this, ctx, req, req_start, inner](Status status) {
      if (ctx.metrics != nullptr) {
        ctx.metrics->Record(MetricPrefix() + ".request_ms",
                            ToMillis(env_->now() - req_start));
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->EndWith(req, status.ok() ? "ok" : "error");
      }
      (*inner)(std::move(status));
    };
  }
  AttemptPut(key, std::move(data), ctx, 0, req, std::move(callback));
}

void RetryClient::AttemptPut(const std::string& key, Blob data,
                             const ClientContext& ctx, int attempt,
                             obs::SpanId req_span, PutCallback callback) {
  if (Status admit = AdmitAttempt(ctx, attempt, req_span); !admit.ok()) {
    auto cb = std::make_shared<PutCallback>(std::move(callback));
    env_->Schedule(0, [cb, admit] { (*cb)(admit); });
    return;
  }
  ++stats_.attempts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".attempts");
  auto gate = std::make_shared<AttemptGate>();
  auto shared_cb = std::make_shared<PutCallback>(std::move(callback));

  ClientContext attempt_ctx = ctx;
  obs::SpanId att = obs::kNoSpan;
  const SimTime att_start = env_->now();
  if (ctx.tracer != nullptr) {
    att = ctx.tracer->Begin(Track(), StrFormat("attempt %d", attempt + 1),
                            "storage", req_span);
    attempt_ctx.span = att;
  }
  auto settle_attempt = [this, ctx, att, att_start](const char* outcome) {
    if (ctx.tracer != nullptr) ctx.tracer->EndWith(att, outcome);
    if (ctx.metrics != nullptr) {
      ctx.metrics->Record(MetricPrefix() + ".attempt_ms",
                          ToMillis(env_->now() - att_start));
    }
  };

  auto retry_or_fail = [this, key, data, ctx, attempt, req_span,
                        shared_cb](Status error) {
    auto give_up = [this, &ctx, attempt, req_span, &shared_cb](Status fin) {
      ++stats_.permanent_failures;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
      }
      (*shared_cb)(std::move(fin));
    };
    if (attempt + 1 >= opt_.max_attempts) {
      give_up(std::move(error));
      return;
    }
    const SimTime now = env_->now();
    if (ctx.deadline.Expired(now)) {
      ++stats_.deadline_rejections;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".deadline_rejections");
      }
      give_up(Status::DeadlineExceeded(
          StrFormat("deadline exhausted after %d attempts: ", attempt + 1) +
          error.message()));
      return;
    }
    if (ctx.retry_budget != nullptr && !ctx.retry_budget->TryAcquire()) {
      ++stats_.budget_denials;
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add(MetricPrefix() + ".budget_denials");
      }
      give_up(Status::ResourceExhausted(
          StrFormat("retry budget exhausted after %d attempts: ",
                    attempt + 1) +
          error.message()));
      return;
    }
    if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".retries");
    obs::SpanId backoff = obs::kNoSpan;
    if (ctx.tracer != nullptr) {
      backoff = ctx.tracer->Begin(Track(), "backoff", "storage", req_span);
    }
    const SimDuration wait = ctx.deadline.Clamp(now, BackoffDelay(attempt));
    env_->Schedule(wait,
                   [this, key, data, ctx, attempt, req_span, backoff,
                    shared_cb] {
                     if (ctx.tracer != nullptr) ctx.tracer->End(backoff);
                     AttemptPut(key, data, ctx, attempt + 1, req_span,
                                std::move(*shared_cb));
                   });
  };

  const SimDuration timeout = ctx.deadline.Clamp(
      env_->now(), static_cast<SimDuration>(
                       static_cast<double>(TimeoutFor(data.size())) *
                       std::pow(opt_.timeout_growth, attempt)));
  const sim::EventId timeout_event = env_->Schedule(
      timeout, [this, ctx, gate, settle_attempt, retry_or_fail]() mutable {
        if (!gate->Claim()) return;
        ++stats_.timeouts;
        if (ctx.metrics != nullptr) {
          ctx.metrics->Add(MetricPrefix() + ".timeouts");
        }
        if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
        settle_attempt("timeout");
        retry_or_fail(Status::DeadlineExceeded("request timed out"));
      });

  service_->Put(
      key, data, attempt_ctx,
      [this, ctx, attempt, req_span, gate, timeout_event, settle_attempt,
       retry_or_fail, shared_cb](Status status) mutable {
        if (!gate->Claim()) return;
        env_->Cancel(timeout_event);
        if (status.ok()) {
          ++stats_.successes;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".successes");
          }
          if (ctx.breaker != nullptr) ctx.breaker->RecordSuccess(env_->now());
          if (ctx.retry_budget != nullptr) ctx.retry_budget->RecordSuccess();
          settle_attempt("ok");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
          }
          (*shared_cb)(std::move(status));
          return;
        }
        if (status.IsResourceExhausted()) {
          ++stats_.throttles;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".throttles");
          }
        }
        if (status.IsRetriable()) {
          if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
          settle_attempt(status.IsResourceExhausted() ? "throttle" : "error");
          retry_or_fail(std::move(status));
        } else {
          ++stats_.fail_fasts;
          ++stats_.permanent_failures;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".fail_fasts");
            ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
          }
          settle_attempt("fail_fast");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(req_span, "attempts", Json(attempt + 1));
          }
          (*shared_cb)(std::move(status));
        }
      });
}

}  // namespace skyrise::storage
