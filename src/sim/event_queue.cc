#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

namespace skyrise::sim {

CalendarEventQueue::CalendarEventQueue() {
  buckets_.assign(size_t{kMinBuckets}, kNil);
  tails_.assign(size_t{kMinBuckets}, kNil);
  bucket_mask_ = size_t{kMinBuckets} - 1;
  width_ = 1;
  SetCursor(0);
}

void CalendarEventQueue::SetCursor(SimTime time) {
  const SimTime bucket_index = time / width_;
  cur_bucket_ = static_cast<size_t>(bucket_index) & bucket_mask_;
  bucket_top_ = bucket_index * width_ + width_;
}

uint32_t CalendarEventQueue::AllocSlot() {
  if (free_head_ != kNil) {
    const uint32_t index = free_head_;
    free_head_ = slots_[index].next;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void CalendarEventQueue::FreeSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.callback.Reset();
  slot.queued = false;
  slot.cancelled = false;
  slot.in_overflow = false;
  // Invalidates every outstanding id for this slot, so a stale Cancel (after
  // fire, after drop, or from a previous occupant) is a no-op by construction.
  ++slot.generation;
  slot.next = free_head_;
  free_head_ = index;
}

EventId CalendarEventQueue::Push(SimTime time, EventCallback callback) {
  const uint32_t index = AllocSlot();
  Slot& slot = slots_[index];
  slot.time = time;
  slot.sequence = next_sequence_++;
  if (callback && !callback.is_inline()) ++stats_.heap_callbacks;
  slot.callback = std::move(callback);
  slot.queued = true;
  slot.cancelled = false;
  InsertIntoCalendar(index);
  ++count_;
  ++stats_.scheduled;
  MaybeGrow();
  return (static_cast<EventId>(slots_[index].generation) << 32) |
         (static_cast<EventId>(index) + 1);
}

bool CalendarEventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const uint64_t index_part = id & 0xffffffffull;
  if (index_part == 0 || index_part > slots_.size()) return false;
  const uint32_t index = static_cast<uint32_t>(index_part - 1);
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  Slot& slot = slots_[index];
  if (!slot.queued || slot.generation != generation || slot.cancelled) {
    return false;
  }
  slot.cancelled = true;
  if (slot.in_overflow) {
    ++overflow_dead_;
    // Long-horizon events are usually timeouts that get cancelled long
    // before they fire; once the dead outnumber the live, one linear filter
    // pass reclaims them (amortized O(1) per cancel, since each pass frees
    // at least half the list).
    if (overflow_dead_ >= 64 &&
        overflow_dead_ * 2 >= overflow_.size() - overflow_head_) {
      PurgeOverflow();
    }
  }
  return true;
}

void CalendarEventQueue::DropCancelled(uint32_t index) {
  FreeSlot(index);
  --count_;
  ++stats_.cancelled_dropped;
}

void CalendarEventQueue::PurgeOverflow() {
  // Compacts in place, so the survivors of the sorted prefix stay sorted.
  size_t kept = 0;
  size_t sorted_kept = 0;
  for (size_t j = overflow_head_; j < overflow_.size(); ++j) {
    const Key key = overflow_[j];
    if (slots_[key.index].cancelled) {
      DropCancelled(key.index);
    } else {
      if (j < overflow_sorted_) ++sorted_kept;
      overflow_[kept++] = key;
    }
  }
  overflow_.resize(kept);
  overflow_head_ = 0;
  overflow_sorted_ = sorted_kept;
  overflow_dead_ = 0;
}

bool CalendarEventQueue::PeekNext(SimTime* time, bool* cancelled) {
  const uint32_t index = FindMin();
  if (index == kNil) return false;
  *time = slots_[index].time;
  *cancelled = slots_[index].cancelled;
  return true;
}

void CalendarEventQueue::DropNext() {
  const uint32_t index = UnlinkMin();
  SKYRISE_CHECK(index != kNil);
  FreeSlot(index);
  ++stats_.cancelled_dropped;
  MaybeShrink();
}

EventCallback CalendarEventQueue::PopNext(SimTime* time) {
  const uint32_t index = UnlinkMin();
  SKYRISE_CHECK(index != kNil);
  *time = slots_[index].time;
  // Move the callback out and recycle the slot *before* the caller invokes
  // it: the callback may schedule (growing the pool) or cancel reentrantly.
  EventCallback callback = std::move(slots_[index].callback);
  FreeSlot(index);
  ++stats_.fired;
  MaybeShrink();
  return callback;
}

uint32_t CalendarEventQueue::FindMin() {
  if (count_ == 0) return kNil;
  if (calendar_count_ == 0) {
    // The calendar year drained but long-horizon events remain in overflow:
    // rebuild the calendar around them. (Every calendar event precedes every
    // overflow event, so the minimum was never in overflow until now.)
    Resize();
    if (calendar_count_ == 0) return kNil;  // Everything was cancelled.
  }
  size_t bucket = cur_bucket_;
  SimTime top = bucket_top_;
  const size_t nbuckets = bucket_mask_ + 1;
  for (size_t i = 0; i < nbuckets; ++i) {
    const uint32_t head = buckets_[bucket];
    if (head != kNil && slots_[head].time < top) {
      // Within the window [top - width_, top): the earliest remaining event.
      // (No event earlier than the sweep start can exist — inserts rewind
      // the cursor — and equal times always share a bucket, so the chain's
      // sequence order settles ties.)
      cur_bucket_ = bucket;
      bucket_top_ = top;
      return head;
    }
    bucket = (bucket + 1) & bucket_mask_;
    top += width_;
  }
  // A full sweep of bucket windows came up empty: the next event lies at
  // least one calendar "year" ahead. Direct-search the chain heads for the
  // global minimum and jump the cursor there.
  uint32_t best = kNil;
  for (size_t i = 0; i < nbuckets; ++i) {
    const uint32_t head = buckets_[i];
    if (head == kNil) continue;
    if (best == kNil || slots_[head].time < slots_[best].time ||
        (slots_[head].time == slots_[best].time &&
         slots_[head].sequence < slots_[best].sequence)) {
      best = head;
    }
  }
  SetCursor(slots_[best].time);
  return best;
}

uint32_t CalendarEventQueue::UnlinkMin() {
  const uint32_t index = FindMin();
  if (index == kNil) return kNil;
  Slot& slot = slots_[index];
  buckets_[cur_bucket_] = slot.next;
  if (slot.next == kNil) tails_[cur_bucket_] = kNil;
  slot.next = kNil;
  slot.queued = false;
  --count_;
  --calendar_count_;
  return index;
}

void CalendarEventQueue::InsertIntoCalendar(uint32_t index) {
  Slot& slot = slots_[index];
  if (slot.time >= year_limit_) {
    // Beyond the current calendar year: park in the overflow list instead of
    // wrapping around the bucket array, where a far-future event stuck in a
    // near-term chain would turn every tail append into a sorted walk.
    slot.in_overflow = true;
    if (overflow_sorted_ == overflow_.size() &&
        (overflow_.empty() || overflow_.back().time <= slot.time)) {
      ++overflow_sorted_;  // In order: sequence numbers are monotone.
    }
    overflow_.push_back(Key{slot.time, slot.sequence, index});
    return;
  }
  slot.in_overflow = false;
  ++calendar_count_;
  if (slot.time < bucket_top_ - width_) {
    // Earlier than the cursor window (e.g. first insert after the calendar
    // drained far in the future): rewind so FindMin's sweep cannot miss it.
    SetCursor(slot.time);
  }
  const size_t bucket = static_cast<size_t>(slot.time / width_) & bucket_mask_;
  const uint32_t head = buckets_[bucket];
  if (head == kNil) {
    buckets_[bucket] = index;
    tails_[bucket] = index;
    slot.next = kNil;
    return;
  }
  const uint32_t tail = tails_[bucket];
  if (slots_[tail].time <= slot.time) {
    // Common case: the newest event sorts after the whole chain (sequence
    // numbers are monotone, so equal times append too).
    slots_[tail].next = index;
    tails_[bucket] = index;
    slot.next = kNil;
    return;
  }
  if (slots_[head].time > slot.time) {
    slot.next = head;
    buckets_[bucket] = index;
    return;
  }
  uint32_t prev = head;
  while (slots_[prev].next != kNil &&
         slots_[slots_[prev].next].time <= slot.time) {
    prev = slots_[prev].next;
  }
  slot.next = slots_[prev].next;
  slots_[prev].next = index;
}

void CalendarEventQueue::MaybeGrow() {
  // Grow on calendar residency (chains getting long), shrink on the total
  // population (array oversized). Resize sizes the array from the live total,
  // so neither condition can hold immediately after it — no thrash.
  const size_t nbuckets = bucket_mask_ + 1;
  if (calendar_count_ > 2 * nbuckets) Resize();
}

void CalendarEventQueue::MaybeShrink() {
  const size_t nbuckets = bucket_mask_ + 1;
  if (nbuckets > size_t{kMinBuckets} && count_ < nbuckets / 8) Resize();
}

void CalendarEventQueue::Resize() {
  ++stats_.calendar_resizes;
  if (calendar_count_ == 0 && overflow_dead_ == 0 &&
      overflow_sorted_ == overflow_.size()) {
    ResizeFromSortedOverflow();
    return;
  }
  run_.clear();
  fresh_.clear();
  // Empty the chains into fresh_. A drained calendar has nothing to walk:
  // every head and tail is already kNil.
  if (calendar_count_ > 0) {
    for (size_t b = 0; b < buckets_.size(); ++b) {
      uint32_t i = buckets_[b];
      buckets_[b] = kNil;
      tails_[b] = kNil;
      while (i != kNil) {
        const uint32_t next = slots_[i].next;
        if (slots_[i].cancelled) {
          // Compact cancelled events out instead of re-sorting and
          // re-homing dead weight on every resize: cancel-heavy workloads
          // (timeouts that almost always get cancelled) would otherwise keep
          // the population — and the bucket array sized from it — growing
          // without bound.
          slots_[i].next = kNil;
          DropCancelled(i);
        } else {
          fresh_.push_back(Key{slots_[i].time, slots_[i].sequence, i});
        }
        i = next;
      }
    }
  }
  // Then the overflow list, freeing its cancelled events in list order.
  stats_.rebuild_overflow_reads += overflow_.size() - overflow_head_;
  for (size_t j = overflow_head_; j < overflow_.size(); ++j) {
    const Key& key = overflow_[j];
    if (slots_[key.index].cancelled) {
      DropCancelled(key.index);
    } else {
      (j < overflow_sorted_ ? run_ : fresh_).push_back(key);
    }
  }
  overflow_.clear();
  overflow_head_ = 0;
  overflow_sorted_ = 0;
  overflow_dead_ = 0;
  calendar_count_ = 0;
  // Only the chain survivors and the out-of-order overflow arrivals need a
  // sort; the overflow's sorted run is merged in linearly.
  std::sort(fresh_.begin(), fresh_.end());
  const std::vector<Key>* sorted = &fresh_;
  if (fresh_.empty()) {
    sorted = &run_;
  } else if (!run_.empty()) {
    merged_.resize(run_.size() + fresh_.size());
    std::merge(run_.begin(), run_.end(), fresh_.begin(), fresh_.end(),
               merged_.begin());
    sorted = &merged_;
  }
  const std::vector<Key>& queued = *sorted;
  Reshape(queued.data(), queued.size());
  // Sorted reinsertion: every calendar insert lands as an O(1) tail append,
  // and everything from the first event beyond the year on is the new
  // overflow list, one sorted run.
  size_t k = 0;
  for (; k < queued.size() && queued[k].time < year_limit_; ++k) {
    InsertIntoCalendar(queued[k].index);
  }
  for (; k < queued.size(); ++k) {
    slots_[queued[k].index].in_overflow = true;
    overflow_.push_back(queued[k]);
  }
  overflow_sorted_ = overflow_.size();
}

void CalendarEventQueue::ResizeFromSortedOverflow() {
  // Resize's rebuild in the case a rebuild storm of quantised event times
  // is made of: nothing in the chains, nothing cancelled in the overflow
  // list and the list one sorted run whose head is about to enter the
  // calendar. The head, up to the new year, moves into the calendar; the
  // rest stays where it is, since it is the list a walk would rebuild.
  const size_t reads =
      Reshape(overflow_.data() + overflow_head_,
              overflow_.size() - overflow_head_);
  size_t k = overflow_head_;
  for (; k < overflow_.size() && overflow_[k].time < year_limit_; ++k) {
    InsertIntoCalendar(overflow_[k].index);
  }
  stats_.rebuild_overflow_reads += reads + (k - overflow_head_);
  overflow_head_ = k;
  if (2 * overflow_head_ > overflow_.size()) {
    // More than half the array is consumed, or all of it: drop the front,
    // amortised O(1) per consumed entry.
    stats_.rebuild_overflow_reads += overflow_.size() - overflow_head_;
    overflow_.erase(overflow_.begin(),
                    overflow_.begin() + static_cast<ptrdiff_t>(overflow_head_));
    overflow_head_ = 0;
  }
  overflow_sorted_ = overflow_.size();
}

size_t CalendarEventQueue::Reshape(const Key* queued, size_t count) {
  // Size the bucket array from the live population (post-purge): smallest
  // power of two holding it, so grow/shrink thresholds cannot thrash.
  size_t new_bucket_count = size_t{kMinBuckets};
  while (new_bucket_count < count) new_bucket_count *= 2;
  // Width from the *median* inter-event gap of the head half of the sorted
  // population, not the global span: real populations are skewed (dense near
  // now, sparse timeout tail), and any mean-based width lets a few far-future
  // outliers stretch buckets until the dense head piles into long chains.
  // The median ignores outliers entirely; far-future events simply wrap
  // around the bucket array, which FindMin's windowed sweep handles.
  SimTime new_width = 1;
  SimTime min_time = 0;
  size_t read = 0;
  if (count > 0) {
    min_time = queued[0].time;
    const size_t head = std::min(std::max<size_t>(count / 2, 2), count);
    // The head's gaps are nonnegative, so their median is 0 exactly when
    // more than `median` of them are 0. Quantised event times make that the
    // common case, which then needs no selection and stops counting as soon
    // as the zeros are a majority.
    const size_t median = (head - 1) / 2;
    size_t zero_gaps = 0;
    size_t i = 1;
    for (; i < head && zero_gaps <= median; ++i) {
      if (queued[i].time == queued[i - 1].time) ++zero_gaps;
    }
    read = i;
    if (head > 1 && zero_gaps <= median) {
      gaps_.clear();
      for (i = 1; i < head; ++i) {
        gaps_.push_back(queued[i].time - queued[i - 1].time);
      }
      std::nth_element(gaps_.begin(), gaps_.begin() + median, gaps_.end());
      new_width = std::max<SimTime>(1, 2 * gaps_[median]);
      read = head;
    }
  }
  buckets_.resize(new_bucket_count, kNil);
  tails_.resize(new_bucket_count, kNil);
  bucket_mask_ = new_bucket_count - 1;
  width_ = new_width;
  // One calendar year spans the bucket array exactly once; anything past it
  // re-enters the overflow list.
  const SimTime span_max = std::numeric_limits<SimTime>::max() - min_time;
  if (new_width > span_max / static_cast<SimTime>(new_bucket_count)) {
    year_limit_ = std::numeric_limits<SimTime>::max();
  } else {
    year_limit_ = min_time + new_width * static_cast<SimTime>(new_bucket_count);
  }
  SetCursor(min_time);
  return read;
}

EventPoolStats CalendarEventQueue::stats() const {
  EventPoolStats snapshot = stats_;
  snapshot.pool_capacity = slots_.size();
  snapshot.queued = count_;
  snapshot.bucket_count = bucket_mask_ + 1;
  uint64_t free_count = 0;
  for (uint32_t i = free_head_; i != kNil; i = slots_[i].next) ++free_count;
  snapshot.free_slots = free_count;
  return snapshot;
}

}  // namespace skyrise::sim
