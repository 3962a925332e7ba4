#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace ignem {

EventQueue::EventQueue(LadderConfig ladder) {
  IGNEM_CHECK(ladder.bucket_width_micros > 0);
  IGNEM_CHECK(ladder.bucket_count >= 64 &&
              std::has_single_bit(ladder.bucket_count));
  buckets_.resize(ladder.bucket_count);
  occupancy_.assign(ladder.bucket_count / 64, 0);
  width_micros_ = ladder.bucket_width_micros;
  window_micros_ =
      width_micros_ * static_cast<std::int64_t>(ladder.bucket_count);
}

const char* event_class_name(EventClass cls) {
  switch (cls) {
    case EventClass::kGeneric:
      return "generic";
    case EventClass::kTransfer:
      return "transfer";
    case EventClass::kPeriodic:
      return "periodic";
    case EventClass::kRpc:
      return "rpc";
    case EventClass::kMigration:
      return "migration";
    case EventClass::kRetry:
      return "retry";
  }
  return "unknown";
}

std::uint32_t EventQueue::acquire_slot(Action action, EventClass cls) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].action = std::move(action);
    slots_[slot].cls = cls;
    return slot;
  }
  IGNEM_CHECK(slots_.size() < kNoSlot);
  Slot& s = slots_.emplace_back();
  s.action = std::move(action);
  s.cls = cls;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;      // destroy the callable now, not at slot reuse
  ++s.gen;                 // invalidate outstanding handles
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle EventQueue::push(SimTime when, Action action, EventClass cls) {
  IGNEM_CHECK(action != nullptr);
  const std::uint32_t slot = acquire_slot(std::move(action), cls);
  const std::uint64_t seq = next_seq_++;
  const HeapEntry entry{when.count_micros(), seq, slot};
  ++live_;
  if (entry.when_micros < bottom_end_) {
    // A push below the band with the whole band empty means the band
    // drifted far ahead (the queue drained, or only far-horizon events
    // remain); re-anchor it so short-delay traffic uses the buckets again
    // instead of piling into the bottom heap.
    if (bottom_.empty() && bucket_events_ == 0) {
      bottom_end_ = (entry.when_micros / width_micros_ + 1) * width_micros_;
    }
    heap_push(bottom_, kInBottom, entry);
  } else if (entry.when_micros < bottom_end_ + window_micros_) {
    bucket_insert(entry);
    // A push into an idle band must surface in next_time() immediately.
    if (bottom_.empty()) refill_bottom();
  } else {
    heap_push(far_, kInFar, entry);
  }
  return EventHandle(pack(slot, slots_[slot].gen));
}

bool EventQueue::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((handle.raw() >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(handle.raw());
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  const Where where = slots_[slot].where;
  const std::uint32_t pos = slots_[slot].pos;
  release_slot(slot);
  switch (where) {
    case kInFar:
      heap_remove_at(far_, pos);
      break;
    case kInBottom:
      heap_remove_at(bottom_, pos);
      if (bottom_.empty()) refill_bottom();
      break;
    case kInBucket:
      bucket_remove(slot);
      break;
  }
  --live_;
  return true;
}

const EventQueue::HeapEntry& EventQueue::min_entry() const {
  IGNEM_CHECK(live_ > 0);
  // Invariant: the bottom is non-empty whenever any bucket is, and every
  // bottom entry precedes every bucket entry — so the global minimum is the
  // earlier of the two heap fronts.
  if (bottom_.empty()) return far_.front();
  if (far_.empty()) return bottom_.front();
  return bottom_.front().before(far_.front()) ? bottom_.front() : far_.front();
}

SimTime EventQueue::next_time() const {
  return SimTime(min_entry().when_micros);
}

std::pair<SimTime, EventQueue::Action> EventQueue::pop() {
  const HeapEntry& min = min_entry();
  const bool from_bottom = !bottom_.empty() && &min == &bottom_.front();
  const HeapEntry top = min;
  std::pair<SimTime, Action> result{SimTime(top.when_micros),
                                    std::move(slots_[top.slot].action)};
  last_cls_ = slots_[top.slot].cls;
  // The action has been moved out; release still clears the husk.
  release_slot(top.slot);
  if (from_bottom) {
    heap_remove_at(bottom_, 0);
    if (bottom_.empty()) refill_bottom();
  } else {
    heap_remove_at(far_, 0);
    if (bottom_.empty() && bucket_events_ == 0) {
      // The whole bucketed band has fallen behind the clock; re-anchor the
      // window at the time just popped so subsequent short-delay pushes
      // land in buckets again instead of piling into the far heap.
      bottom_end_ = (top.when_micros / width_micros_) * width_micros_;
    }
  }
  --live_;
  return result;
}

void EventQueue::bucket_insert(HeapEntry entry) {
  const std::size_t index = bucket_index(entry.when_micros);
  std::vector<HeapEntry>& bucket = buckets_[index];
  Slot& s = slots_[entry.slot];
  s.where = kInBucket;
  s.pos = static_cast<std::uint32_t>(bucket.size());
  s.bucket = static_cast<std::uint32_t>(index);
  if (bucket.size() == bucket.capacity()) note_container_growth();
  bucket.push_back(entry);
  if (bucket.size() == 1) mark_occupied(index, true);
  ++bucket_events_;
}

void EventQueue::bucket_remove(std::uint32_t slot) {
  // The caller has already released `slot`; its location fields are intact.
  const std::size_t index = slots_[slot].bucket;
  const std::size_t pos = slots_[slot].pos;
  std::vector<HeapEntry>& bucket = buckets_[index];
  if (pos != bucket.size() - 1) {
    bucket[pos] = bucket.back();
    slots_[bucket[pos].slot].pos = static_cast<std::uint32_t>(pos);
  }
  bucket.pop_back();
  if (bucket.empty()) mark_occupied(index, false);
  --bucket_events_;
  if (bottom_.empty()) refill_bottom();
}

void EventQueue::mark_occupied(std::size_t index, bool occupied) {
  if (occupied) {
    occupancy_[index / 64] |= std::uint64_t{1} << (index % 64);
  } else {
    occupancy_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
  }
}

std::size_t EventQueue::next_occupied_distance(std::size_t from) const {
  const std::size_t n = buckets_.size();
  // First word: mask off bits below `from`.
  std::size_t word = from / 64;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (from % 64));
  for (std::size_t scanned = 0; scanned <= occupancy_.size(); ++scanned) {
    if (bits != 0) {
      const std::size_t index =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return (index + n - from) & (n - 1);
    }
    word = (word + 1) % occupancy_.size();
    bits = occupancy_[word];
  }
  IGNEM_CHECK(false);  // caller guarantees bucket_events_ > 0
  return 0;
}

void EventQueue::refill_bottom() {
  if (bucket_events_ == 0) return;
  IGNEM_CHECK(bottom_.empty());
  const std::size_t cur = bucket_index(bottom_end_);
  const std::size_t d = next_occupied_distance(cur);
  const std::size_t index = (cur + d) & (buckets_.size() - 1);
  std::vector<HeapEntry>& bucket = buckets_[index];
  // Bulk-load and heapify bottom-up: O(k) instead of k pushes' O(k log k).
  if (bottom_.capacity() < bucket.size()) note_container_growth();
  bottom_.assign(bucket.begin(), bucket.end());
  bucket.clear();
  mark_occupied(index, false);
  bucket_events_ -= bottom_.size();
  for (std::size_t i = 0; i < bottom_.size(); ++i) {
    Slot& s = slots_[bottom_[i].slot];
    s.where = kInBottom;
    s.pos = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = bottom_.size() / 4 + 1; i-- > 0;) {
    sift_down(bottom_, i, bottom_[i]);
  }
  bottom_end_ += static_cast<std::int64_t>(d + 1) * width_micros_;
}

void EventQueue::heap_push(std::vector<HeapEntry>& heap, Where where,
                           HeapEntry entry) {
  slots_[entry.slot].where = where;
  if (heap.size() == heap.capacity()) note_container_growth();
  heap.emplace_back();  // grow; place() fills it
  sift_up(heap, heap.size() - 1, entry);
}

void EventQueue::heap_remove_at(std::vector<HeapEntry>& heap,
                                std::size_t pos) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;  // removed the tail entry itself
  // The displaced tail entry may belong above or below `pos`.
  if (pos > 0 && last.before(heap[(pos - 1) / 4])) {
    sift_up(heap, pos, last);
  } else {
    sift_down(heap, pos, last);
  }
}

void EventQueue::place(std::vector<HeapEntry>& heap, std::size_t pos,
                       HeapEntry entry) {
  heap[pos] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::vector<HeapEntry>& heap, std::size_t pos,
                         HeapEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entry.before(heap[parent])) break;
    place(heap, pos, heap[parent]);
    pos = parent;
  }
  place(heap, pos, entry);
}

void EventQueue::sift_down(std::vector<HeapEntry>& heap, std::size_t pos,
                           HeapEntry entry) {
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t best = 0;
    const HeapEntry* best_entry = &entry;
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      if (heap[c].before(*best_entry)) {
        best = c;
        best_entry = &heap[c];
      }
    }
    if (best == 0) break;
    place(heap, pos, heap[best]);
    pos = best;
  }
  place(heap, pos, entry);
}

}  // namespace ignem
