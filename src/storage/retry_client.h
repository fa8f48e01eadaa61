#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/environment.h"
#include "storage/storage_service.h"

/// \file retry_client.h
/// SDK-style storage client with request timeouts and exponential backoff
/// with full jitter (the Fig. 11 client configuration: "eager but not
/// aggressive"). Requests that repeatedly fail back off exponentially — the
/// mechanism behind the straggler-induced IOPS drops in Section 4.4.1.
///
/// Overload robustness (all opt-in via ClientContext): per-attempt timeouts
/// and backoff waits are clamped to the remaining `ctx.deadline` and the
/// request fails fast with DeadlineExceeded once it expires (cumulative
/// backoff can no longer outlive the caller); every retry draws a token
/// from `ctx.retry_budget` when one is attached (successes refund a
/// fraction); and an open `ctx.breaker` sheds attempts with a typed
/// ResourceExhausted carrying the retry-after hint.
///
/// Request state lives in a per-client table. A request's key, range or
/// payload, context, callback, attempt number, spans and timeout event sit
/// in one slot, recycled through a free list. GETs and PUTs share one
/// attempt path. The timeout, backoff and shed events capture only
/// (client, slot, serial), which fits the kernel's inline callback buffer.
/// An attempt's serial changes once the attempt settles, so whichever of
/// its timeout and its response fires second is ignored. A response can
/// arrive after its attempt timed out and after the client is destroyed
/// (engine tasks drop their clients when they finish), so the service
/// completion holds the per-slot serial table, which outlives the client,
/// rather than the client itself. The destructor empties that table.

namespace skyrise::storage {

class RetryClient {
 public:
  struct Options {
    SimDuration request_timeout = Millis(200);
    int max_attempts = 8;
    SimDuration backoff_base = Millis(25);
    SimDuration backoff_cap = Seconds(20);
    bool full_jitter = true;
    /// Timeout scaling for large payloads: extra allowance per MiB
    /// transferred (the engine's size-based straggler timeout); 0 disables.
    SimDuration timeout_per_mib = 0;
    /// Timeout growth per retry attempt, so retries of genuinely slow (e.g.,
    /// congestion-bound) transfers eventually succeed instead of looping.
    double timeout_growth = 1.5;
  };

  struct Stats {
    int64_t attempts = 0;
    int64_t throttles = 0;
    int64_t timeouts = 0;
    int64_t successes = 0;
    int64_t permanent_failures = 0;
    /// Non-retriable errors (NotFound, InvalidArgument, Internal, ...)
    /// surfaced immediately without consuming the retry budget. Also
    /// counted in `permanent_failures`.
    int64_t fail_fasts = 0;
    /// Requests abandoned because the propagated deadline expired (before
    /// an attempt or between attempts). Counted in `permanent_failures`.
    int64_t deadline_rejections = 0;
    /// Retries refused because the shared per-query RetryBudget was empty.
    int64_t budget_denials = 0;
    /// Attempts shed by an open circuit breaker.
    int64_t breaker_rejections = 0;
  };

  RetryClient(sim::SimEnvironment* env, StorageService* service,
              const Options& options, uint64_t rng_stream = 2001);
  /// Responses to attempts that already timed out may still arrive; they
  /// are dropped. Requests still in progress must not outlive the client.
  ~RetryClient();
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(RetryClient);

  /// Retrying full-object read. The callback receives the final outcome
  /// after all attempts. When `ctx.tracer` is set, the request opens a span
  /// on track "storage/<service>" under `ctx.span`, with one child span per
  /// attempt and per backoff wait; the storage service attributes request
  /// costs and fault/throttle markers to the active attempt span.
  void Get(const std::string& key, const ClientContext& ctx,
           GetCallback callback);
  void GetRange(const std::string& key, int64_t offset, int64_t length,
                const ClientContext& ctx, GetCallback callback);
  void Put(const std::string& key, Blob data, const ClientContext& ctx,
           PutCallback callback);

  const Stats& stats() const { return stats_; }
  StorageService* service() { return service_; }
  const Options& options() const { return opt_; }

 private:
  enum : uint32_t { kNoSlot = 0xffffffffu };

  /// One request from issue to final callback.
  struct Request {
    bool is_put = false;
    int attempt = 0;  ///< Zero-based number of the current attempt.
    std::string key;
    int64_t offset = 0;  ///< GET range.
    int64_t length = -1;
    Blob data;  ///< PUT payload.
    ClientContext ctx;
    GetCallback get_cb;
    PutCallback put_cb;
    obs::SpanId span = obs::kNoSpan;
    obs::SpanId attempt_span = obs::kNoSpan;
    obs::SpanId backoff_span = obs::kNoSpan;
    SimTime start = 0;
    SimTime attempt_start = 0;
    sim::EventId timeout_event = sim::kInvalidEventId;
    uint32_t next_free = kNoSlot;
  };

  SimDuration TimeoutFor(int64_t expected_bytes) const;
  SimDuration BackoffDelay(int attempt);
  /// The metric "storage.<service><suffix>", composed in a reused buffer.
  const std::string& Metric(const char* suffix);

  /// Takes a free slot for a new request. The table may grow, so a
  /// reference to a slot is never held across a call that can issue one.
  uint32_t Open(const std::string& key, const ClientContext& ctx,
                bool is_put);
  /// Pre-attempt admission: OK to proceed, or the typed shed error (open
  /// breaker -> ResourceExhausted with a retry-after hint, expired deadline
  /// -> DeadlineExceeded). Stats/metrics for the shed are recorded here.
  [[nodiscard]] Status AdmitAttempt(uint32_t slot);
  void StartAttempt(uint32_t slot);
  /// True if `serial` is still the slot's current serial; then advances
  /// it, so the attempt's other pending event becomes a no-op.
  bool Claim(uint32_t slot, uint32_t serial);
  void OnTimeout(uint32_t slot, uint32_t serial);
  void OnResponse(uint32_t slot, uint32_t serial, Status status,
                  Blob payload);
  void OnBackoff(uint32_t slot, uint32_t serial);
  /// Ends the attempt span and records attempt_ms.
  void Settle(uint32_t slot, const char* outcome);
  void RetryOrFail(uint32_t slot, Status error);
  void GiveUp(uint32_t slot, Status status);
  /// Records request_ms, ends the request span, frees the slot and runs
  /// the caller's callback.
  void Finish(uint32_t slot, Status status, Blob payload = Blob());

  sim::SimEnvironment* env_;
  StorageService* service_;
  Options opt_;
  Rng rng_;
  Stats stats_;
  std::string track_;   ///< "storage/<service>".
  std::string metric_;  ///< Metric-name buffer, "storage.<service>...".
  size_t metric_prefix_;
  std::vector<Request> requests_;
  uint32_t free_head_ = kNoSlot;
  /// Current serial per slot, shared with every service completion in
  /// flight; emptied when the client is destroyed.
  std::shared_ptr<std::vector<uint32_t>> serials_;
};

}  // namespace skyrise::storage
