#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/retry_budget.h"
#include "common/units.h"
#include "net/fabric_driver.h"
#include "net/nic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pricing/cost_meter.h"
#include "storage/blob.h"

/// \file storage_service.h
/// Abstract serverless storage interface (the HTTP Get/Put API of Fig. 2).
/// Requests execute asynchronously on the simulation clock: admission
/// (quotas/throttling) -> first-byte latency -> optional payload streaming
/// through the network fabric -> completion callback.

namespace skyrise::storage {

/// Per-client request context. When `nic` and `fabric` are set, payloads at
/// or above the service's streaming threshold move through the fluid network
/// (so a Lambda client's burst budget gates its scan throughput); otherwise
/// transfer time is folded into the sampled latency.
struct ClientContext {
  net::Nic* nic = nullptr;
  net::FabricDriver* fabric = nullptr;
  net::VpcId vpc = net::kNoVpc;
  pricing::CostMeter* meter = nullptr;  ///< Request metering hook (optional).
  obs::Tracer* tracer = nullptr;        ///< Span sink (optional).
  obs::SpanId span = obs::kNoSpan;      ///< Parent span for request spans.
  obs::MetricsRegistry* metrics = nullptr;  ///< Counter sink (optional).

  // --- Overload-robustness plumbing (all optional; defaults change
  // nothing). The retrying client clamps per-attempt timeouts and backoff
  // waits against `deadline`, draws every retry from `retry_budget`, and
  // sheds through `breaker` — so a query's storage traffic is bounded by
  // what the query has left, not by per-call max_attempts arithmetic.
  Deadline deadline;                    ///< End-to-end request deadline.
  RetryBudget* retry_budget = nullptr;  ///< Shared per-query retry tokens.
  CircuitBreaker* breaker = nullptr;    ///< Per-service breaker (shared).
};

using GetCallback = std::function<void(Result<Blob>)>;
using PutCallback = std::function<void(Status)>;

struct ObjectInfo {
  std::string key;
  int64_t size = 0;
};

class StorageService {
 public:
  virtual ~StorageService() = default;

  /// Pricing/metering identifier: "s3", "s3express", "dynamodb", "efs".
  virtual const std::string& service_name() const = 0;

  /// Asynchronous full-object read.
  virtual void Get(const std::string& key, const ClientContext& ctx,
                   GetCallback callback) = 0;

  /// Asynchronous byte-range read (length -1 => to the end).
  virtual void GetRange(const std::string& key, int64_t offset, int64_t length,
                        const ClientContext& ctx, GetCallback callback) = 0;

  /// Asynchronous write (full object replace).
  virtual void Put(const std::string& key, Blob data, const ClientContext& ctx,
                   PutCallback callback) = 0;

  // --- Instant control-plane helpers (no simulated latency). Used for
  // dataset setup, metadata lookups in tests, and result verification.

  [[nodiscard]] virtual Status Insert(const std::string& key, Blob data) = 0;
  [[nodiscard]] virtual Result<Blob> Peek(const std::string& key) const = 0;
  [[nodiscard]] virtual Status Delete(const std::string& key) = 0;
  virtual std::vector<ObjectInfo> List(const std::string& prefix) const = 0;
  virtual bool Contains(const std::string& key) const = 0;
};

}  // namespace skyrise::storage
