#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/units.h"

/// \file event_queue.h
/// Storage layer of the DES kernel: pooled event slots with small-buffer
/// callback storage and a bucketed calendar queue (Brown 1988) replacing the
/// seed binary heap + tombstone set.
///
/// Determinism contract: events pop in ascending (time, sequence) order — the
/// exact total order the seed `std::priority_queue` used — so any run driven
/// through this queue is bit-identical to a heap-driven run.
///
/// Memory model:
///   - Events live in a slot pool (`slots_`) addressed by index; a free list
///     threads through the same `next` field used for bucket chains. The pool
///     only grows (doubling); capacity is retained for the lifetime of the
///     queue so steady-state scheduling performs zero allocations.
///   - `EventId` packs (generation << 32 | slot_index + 1). Freeing a slot
///     bumps its generation, so a stale id — cancel-after-fire, double
///     cancel, an id from a previous occupant — never matches and Cancel is
///     an O(1) no-op. `kInvalidEventId == 0` is preserved because the index
///     half is offset by one.
///   - Cancellation is lazy: the slot is flagged and the event is dropped
///     (slot freed) when it surfaces at the head of the queue, mirroring the
///     seed's tombstone-at-pop semantics without the unbounded tombstone set.

namespace skyrise::sim {

using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Move-only callable with a 48-byte inline buffer. Typical sim callbacks
/// capture a `this` pointer plus a few ints and fit inline; larger captures
/// spill to the heap (counted, see EventPoolStats::heap_callbacks) instead of
/// unconditionally heap-allocating like libstdc++'s std::function does for
/// captures past 16 bytes.
class EventCallback {
 public:
  enum : size_t { kInlineSize = 48 };

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= size_t{kInlineSize} &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      inline_ = true;
      invoke_ = &InlineInvoke<Fn>;
      manage_ = &InlineManage<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      inline_ = false;
      invoke_ = &HeapInvoke<Fn>;
      manage_ = &HeapManage<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(&other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  void operator()() { invoke_(this); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the callable lives in the inline buffer (no heap allocation).
  bool is_inline() const { return invoke_ != nullptr && inline_; }

  void Reset() {
    if (invoke_ != nullptr) {
      manage_(this, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  using InvokeFn = void (*)(EventCallback*);
  /// Moves `src` into `dst` when src != nullptr, else destroys dst's callable.
  using ManageFn = void (*)(EventCallback* dst, EventCallback* src);

  template <typename Fn>
  static void InlineInvoke(EventCallback* self) {
    (*std::launder(reinterpret_cast<Fn*>(self->storage_)))();
  }
  template <typename Fn>
  static void InlineManage(EventCallback* dst, EventCallback* src) {
    if (src != nullptr) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src->storage_));
      ::new (static_cast<void*>(dst->storage_)) Fn(std::move(*from));
      from->~Fn();
    } else {
      std::launder(reinterpret_cast<Fn*>(dst->storage_))->~Fn();
    }
  }
  template <typename Fn>
  static void HeapInvoke(EventCallback* self) {
    (*static_cast<Fn*>(self->heap_))();
  }
  template <typename Fn>
  static void HeapManage(EventCallback* dst, EventCallback* src) {
    if (src != nullptr) {
      dst->heap_ = src->heap_;
      src->heap_ = nullptr;
    } else {
      delete static_cast<Fn*>(dst->heap_);
      dst->heap_ = nullptr;
    }
  }

  void MoveFrom(EventCallback* other) {
    if (other->invoke_ == nullptr) return;
    invoke_ = other->invoke_;
    manage_ = other->manage_;
    inline_ = other->inline_;
    manage_(this, other);
    other->invoke_ = nullptr;
    other->manage_ = nullptr;
  }

  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    void* heap_;
  };
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  bool inline_ = false;
};

/// Counters exposed for bench/sim_core and the pool-lifetime tests. All are
/// cumulative except pool_capacity / free_slots / queued / bucket_count,
/// which snapshot current state.
struct EventPoolStats {
  uint64_t scheduled = 0;        ///< Total events ever scheduled.
  uint64_t fired = 0;            ///< Events whose callback ran.
  uint64_t cancelled_dropped = 0;  ///< Cancelled events freed at pop.
  uint64_t heap_callbacks = 0;   ///< Callbacks that spilled past the inline buffer.
  uint64_t pool_capacity = 0;    ///< Slots allocated (high-water mark).
  uint64_t free_slots = 0;       ///< Slots currently on the free list.
  uint64_t queued = 0;           ///< Events currently queued (incl. lazily cancelled).
  uint64_t bucket_count = 0;     ///< Current calendar bucket array size.
  uint64_t calendar_resizes = 0;  ///< Calendar rebuilds (grow + shrink).
  /// Overflow-list entries read or moved by rebuilds: the host cost of the
  /// rebuilds, not a simulated figure.
  uint64_t rebuild_overflow_reads = 0;
};

/// Bucketed calendar queue over the slot pool. Buckets are sorted singly
/// linked chains (ascending time, sequence) with tail pointers so the common
/// schedule-into-the-future case is an O(1) append. A cursor
/// (`cur_bucket_`, `bucket_top_`) tracks the bucket window
/// [bucket_top_ - width_, bucket_top_) containing the virtual clock; pops
/// advance it, inserts earlier than the window rewind it.
///
/// Events beyond the calendar's current year (`year_limit_`) — typically
/// long-horizon timeouts — live in an overflow list of (time, sequence,
/// slot) keys instead of wrapping around the bucket array, which would
/// interleave them with near-term chains and defeat the tail-append fast
/// path. The overflow is redistributed when the calendar drains, and
/// cancelled overflow entries are purged by a cheap in-place filter once
/// they outnumber the live ones (long-horizon timeouts are almost always
/// cancelled before they fire). The list keeps a (time, sequence)-sorted
/// prefix: a rebuild leaves or re-appends its beyond-the-year survivors in
/// order, in-order pushes extend the prefix and the purge keeps relative
/// order. A rebuild of a drained calendar over a wholly sorted list that
/// holds no cancelled event moves the head of the list into the calendar,
/// touching nothing else; any other rebuild frees the cancelled events,
/// sorts only the chain survivors and the out-of-order arrivals, then
/// merges them with the sorted run.
class CalendarEventQueue {
 public:
  CalendarEventQueue();
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(CalendarEventQueue);

  /// Allocates a slot, stores the callback, and inserts into the calendar.
  EventId Push(SimTime time, EventCallback callback);

  /// O(1) lazy cancel. No-op (returns false) when the id is stale: already
  /// fired, already cancelled and dropped, or never issued.
  bool Cancel(EventId id);

  /// Non-destructive peek at the head event (which may be cancelled).
  /// Returns false when the queue is empty.
  bool PeekNext(SimTime* time, bool* cancelled);

  /// Frees the head event without running it (it was cancelled). Must follow
  /// a successful PeekNext.
  void DropNext();

  /// Unlinks the head event, frees its slot, and returns its callback. Must
  /// follow a successful PeekNext. The slot is recycled *before* the caller
  /// invokes the callback, so callbacks may freely schedule (and grow the
  /// pool) or cancel.
  EventCallback PopNext(SimTime* time);

  /// Events currently queued, including lazily cancelled ones that have not
  /// yet surfaced — mirrors the seed's pending count semantics.
  uint64_t size() const { return count_; }

  /// Snapshot of the cumulative counters plus current pool/calendar state.
  EventPoolStats stats() const;

 private:
  enum : uint32_t { kNil = 0xffffffffu };
  enum : size_t { kMinBuckets = 8 };

  struct Slot {
    SimTime time = 0;
    uint64_t sequence = 0;
    uint32_t generation = 0;
    bool queued = false;
    bool cancelled = false;
    bool in_overflow = false;  ///< Lives in overflow_, not a bucket chain.
    uint32_t next = kNil;      ///< Bucket chain link, or free-list link.
    EventCallback callback;
  };

  /// A queued event's order key, copied out of its slot so the overflow
  /// list and a rebuild compare, sort and merge contiguous values rather
  /// than chasing slot indices.
  struct Key {
    SimTime time = 0;
    uint64_t sequence = 0;
    uint32_t index = 0;
    bool operator<(const Key& other) const {
      if (time != other.time) return time < other.time;
      return sequence < other.sequence;
    }
  };

  uint32_t AllocSlot();
  void FreeSlot(uint32_t index);
  /// Frees a cancelled event found by a purge or a rebuild.
  void DropCancelled(uint32_t index);
  void InsertIntoCalendar(uint32_t index);
  /// Positions the cursor on the bucket holding the global (time, sequence)
  /// minimum and returns its slot index, or kNil when empty.
  uint32_t FindMin();
  /// Unlinks the head of the current bucket (must be the FindMin result).
  uint32_t UnlinkMin();
  void SetCursor(SimTime time);
  void Resize();
  /// Resize of a drained calendar whose overflow list is one sorted run
  /// without cancelled events.
  void ResizeFromSortedOverflow();
  /// Sizes the bucket array and picks the width, year and cursor for the
  /// `count` queued events whose keys lie sorted from `queued` on. Returns
  /// the number of keys it read.
  size_t Reshape(const Key* queued, size_t count);
  void MaybeGrow();
  void MaybeShrink();
  void PurgeOverflow();

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
  uint64_t next_sequence_ = 1;

  std::vector<uint32_t> buckets_;  ///< Chain heads, one per bucket.
  std::vector<uint32_t> tails_;    ///< Chain tails for O(1) future-append.
  size_t bucket_mask_ = 0;
  SimTime width_ = 1;
  size_t cur_bucket_ = 0;
  SimTime bucket_top_ = 1;
  uint64_t count_ = 0;           ///< All queued events (calendar + overflow).
  uint64_t calendar_count_ = 0;  ///< Events resident in bucket chains.

  /// Events at/beyond year_limit_, from overflow_head_ on; the entries
  /// before it were moved into the calendar. It is empty whenever no entry
  /// is left past overflow_head_.
  std::vector<Key> overflow_;
  size_t overflow_head_ = 0;
  size_t overflow_sorted_ = 0;  ///< End of overflow_'s sorted prefix.
  uint64_t overflow_dead_ = 0;  ///< Cancelled events still in overflow_.
  SimTime year_limit_ = kMinBuckets;  ///< First time outside the calendar.

  // Rebuild scratch, kept so a rebuild allocates only when the live
  // population reaches a new high.
  std::vector<Key> run_;     ///< Survivors of overflow_'s sorted prefix.
  std::vector<Key> fresh_;   ///< Every other survivor; sorted, then merged.
  std::vector<Key> merged_;  ///< run_ and fresh_ merged.
  std::vector<SimTime> gaps_;

  EventPoolStats stats_;
};

}  // namespace skyrise::sim
