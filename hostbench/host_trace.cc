#include "host_trace.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
/// Bumped by the replaced operator new below. The simulation runs on one
/// host thread, so a plain counter is exact.
uint64_t g_allocations = 0;
}  // namespace

// Counting shim over malloc: every allocation the program makes through
// operator new is counted; deallocation stays on the default path.
void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hostbench {

uint64_t AllocCount() { return g_allocations; }

double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDrive:
      return "drive";
    case Layer::kStorageCall:
      return "storage.call";
    case Layer::kStorageRetry:
      return "storage.retry";
    case Layer::kFaasCall:
      return "faas.call";
    case Layer::kEngineHandler:
      return "engine.handler";
    case Layer::kEngineCallback:
      return "engine.callback";
    case Layer::kServingCallback:
      return "serving.callback";
    case Layer::kClient:
      return "client";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

void HostTrace::Begin(Layer layer, uint64_t key) {
  int64_t span = -1;
  const int64_t now = NowNs();
  if (spans_.size() < kSpanLimit) {
    span = static_cast<int64_t>(spans_.size());
    Span record;
    record.layer = layer;
    record.key = key;
    record.parent = stack_.empty() ? -1 : stack_.back().span;
    record.start_ns = now;
    spans_.push_back(record);
  } else {
    ++dropped_spans_;
  }
  stack_.push_back(Open{layer, key, now, 0, AllocCount(), 0, span});
}

void HostTrace::End() {
  const int64_t now = NowNs();
  const uint64_t allocs = AllocCount();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t total_ns = now - open.start_ns;
  const uint64_t total_allocs = allocs - open.start_allocs;
  Totals& totals = totals_[static_cast<size_t>(open.layer)];
  ++totals.calls;
  totals.self_ns += total_ns - open.child_ns;
  totals.self_allocs += total_allocs - open.child_allocs;
  if (!stack_.empty()) {
    stack_.back().child_ns += total_ns;
    stack_.back().child_allocs += total_allocs;
  }
  if (open.span >= 0) {
    Span& span = spans_[static_cast<size_t>(open.span)];
    span.end_ns = now;
    span.self_ns = total_ns - open.child_ns;
  }
}

bool HostTrace::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "layer,key,parent,start_ns,end_ns,self_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s,%llu,%lld,%lld,%lld,%lld\n", LayerName(span.layer),
                 static_cast<unsigned long long>(span.key),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin),
                 static_cast<long long>(span.self_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace hostbench
