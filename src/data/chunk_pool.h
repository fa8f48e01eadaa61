#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "data/chunk.h"

/// \file chunk_pool.h
/// Per-worker recycling pool for data::Chunk buffers. Morsel-driven execution
/// creates and drops a chunk per Push()/operator hop; without reuse every hop
/// reallocates each column's vectors. The pool keeps released chunks on a
/// LIFO free list so the next acquire hands back warm capacity, string
/// dictionaries included: decode refills a dictionary in place when its
/// column holds it alone.
///
/// Ownership rules (see DESIGN.md "Event-kernel and data-plane memory
/// model"): a chunk obtained from the pool is owned by the caller and may
/// outlive the pool; Release is an optional donation, never an obligation.
/// Pools are strictly per-worker (single-threaded on the sim event loop), so
/// there is no locking. Retained capacity is *not* charged to
/// engine::MemoryTracker: the tracker prices live data bytes, and pooled
/// buffers hold no live rows. Nothing measures the retained footprint; the
/// `max_free` cap bounds it.

namespace skyrise::data {

class ChunkPool {
 public:
  /// `max_free` bounds how many spent chunks the pool retains; releases past
  /// the cap are dropped so a burst cannot pin capacity forever.
  explicit ChunkPool(size_t max_free = 64) : max_free_(max_free) {}
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(ChunkPool);

  /// Returns a materialized chunk shaped to `schema`, recycling the most
  /// recently released chunk's buffers when one is available. Reshapes with
  /// Chunk::PrepareFor: column contents are unspecified (not cleared), which
  /// keeps buffers alive for FilterInto/SliceInto/DecodeColumnInto refills.
  /// Use only when every column is overwritten before being read.
  Chunk AcquirePrepared(const Schema& schema) {
    if (!free_.empty()) {
      Chunk chunk = std::move(free_.back());
      free_.pop_back();
      chunk.PrepareFor(schema);
      return chunk;
    }
    return Chunk::Empty(schema);
  }

  /// Returns a free chunk as-is (arbitrary shape, unspecified contents) for
  /// decode-into flows that reshape it themselves, e.g.
  /// format::DecodeRowGroupInto. Returns a default-constructed chunk when
  /// the free list is empty.
  Chunk AcquireRaw() {
    if (!free_.empty()) {
      Chunk chunk = std::move(free_.back());
      free_.pop_back();
      return chunk;
    }
    return Chunk();
  }

  /// Donates a spent chunk's buffers back to the pool. Synthetic and
  /// moved-from chunks carry no buffers and are dropped.
  void Release(Chunk&& chunk) {
    if (chunk.is_synthetic() || chunk.num_columns() == 0 ||
        free_.size() >= max_free_) {
      return;
    }
    free_.push_back(std::move(chunk));
  }

 private:
  size_t max_free_;
  std::vector<Chunk> free_;
};

}  // namespace skyrise::data
