#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

/// \file host_trace.h
/// Host-clock instrumentation for the benchmark: a global allocation counter,
/// peak RSS, and a span recorder that the benchmark's wrappers open around
/// each call into a layer. Nothing here reads or writes simulation state, so
/// a traced run fires the same events as an untraced one.

namespace hostbench {

/// Allocations made through the global operator new since process start.
uint64_t AllocCount();

/// Peak resident set size of this process, in MiB.
double PeakRssMib();

/// Monotonic host clock in nanoseconds.
int64_t NowNs();

/// The layer a wrapped boundary belongs to. kDrive is the root scope around
/// the simulation drive loop; its self time is the time no wrapper covers.
enum class Layer : uint8_t {
  kDrive,
  kStorageCall,      ///< StorageService::Get/GetRange/Put into the store.
  kStorageRetry,     ///< Store completions inside RetryClient (storage runs).
  kFaasCall,         ///< ComputePlatform::Invoke into the Lambda platform.
  kEngineHandler,    ///< Registered coordinator/worker/invoker handlers.
  kEngineCallback,   ///< Completions delivered into engine code.
  kServingCallback,  ///< Query completions delivered to the frontend.
  kClient,           ///< The benchmark's own load generator.
  kCount,
};

const char* LayerName(Layer layer);

/// Records nested host-time scopes on the single simulation thread. A
/// scope's self time is its duration minus the durations of the scopes
/// opened inside it, so the self times of all layers add up exactly to the
/// root scope's duration. Per-layer totals are always kept; individual
/// spans are kept up to kSpanLimit and written out at the end: for
/// boundaries crossed millions of times, the totals are enough.
class HostTrace {
 public:
  struct Totals {
    int64_t calls = 0;
    int64_t self_ns = 0;
    uint64_t self_allocs = 0;
  };
  struct Span {
    Layer layer = Layer::kDrive;
    uint64_t key = 0;     ///< Request or invocation number of the boundary.
    int64_t parent = -1;  ///< Index of the enclosing kept span, or -1.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t self_ns = 0;
  };

  static constexpr size_t kSpanLimit = 300000;

  HostTrace() { stack_.reserve(64); }
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  void Begin(Layer layer, uint64_t key);
  void End();

  const Totals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped_spans() const { return dropped_spans_; }
  bool idle() const { return stack_.empty(); }

  /// Writes kept spans as CSV (layer,key,parent,start_ns,end_ns,self_ns),
  /// times relative to the first span. Returns false on an I/O error.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    uint64_t key;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t start_allocs;
    uint64_t child_allocs;
    int64_t span;  ///< Index into spans_, or -1 when not kept.
  };

  std::vector<Open> stack_;
  std::array<Totals, static_cast<size_t>(Layer::kCount)> totals_{};
  std::vector<Span> spans_;
  int64_t dropped_spans_ = 0;
};

/// RAII scope; a null trace makes it a no-op.
class Scope {
 public:
  Scope(HostTrace* trace, Layer layer, uint64_t key) : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(layer, key);
  }
  ~Scope() {
    if (trace_ != nullptr) trace_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  HostTrace* trace_;
};

}  // namespace hostbench
