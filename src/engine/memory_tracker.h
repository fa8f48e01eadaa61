#pragma once

#include <algorithm>
#include <cstdint>

/// \file memory_tracker.h
/// Per-worker accounting of resident data bytes during streaming fragment
/// execution: in-flight read buffers, the morsel being processed, and the
/// accumulated state of pipeline breakers (join build tables, aggregate
/// groups, sort/sessionize buffers) and sinks. The peak feeds worker stats,
/// the query response, and the break-even memory-config recommendation
/// (see pricing::RecommendLambdaMemoryMib). Capacity a data::ChunkPool keeps
/// for reuse holds no live rows and is not counted.

namespace skyrise::engine {

class MemoryTracker {
 public:
  void Add(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }
  void Release(int64_t bytes) { current_ -= bytes; }

  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

}  // namespace skyrise::engine
