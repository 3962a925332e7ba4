// Pending-event set for the discrete-event simulator: a calendar/ladder
// front-end over a 4-ary min-heap keyed by (time, seq).
//
// Near-horizon events — the dense band of short-delay events that dominates
// kernel traffic (transfer completions, zero-delay continuations,
// NIC-latency hops) — land in a ring of fixed-width time buckets with O(1)
// push and O(1) swap-remove cancel. Only the bucket currently being drained
// (the "bottom") is heap-ordered, so pop costs O(log k) in the bucket
// occupancy k (tens) instead of O(log n) in the whole pending set (hundreds
// of thousands). Events beyond the bucket window overflow into the
// far-horizon 4-ary heap and are compared against the bottom on every pop,
// so ordering is exact. The differential tests check it against the
// tombstone reference queue in bench/reference_kernel.h.
//
// The total order is (time, then insertion seq — FIFO within a timestamp)
// and cancellation is true and O(log)-bounded: a handle carries (slot,
// generation), slots record where their event currently lives (far heap /
// bottom heap / bucket), and cancel removes it from that container
// directly — no tombstones, no hashing.
//
// Storage: 24-byte (time, seq, slot) records move through the heaps and
// buckets; callbacks stay put in a slot arena (ChunkedVector — growth never
// move-constructs live callbacks) recycled through a free list. Bucket
// vectors keep their capacity across ring reuse, so a warmed queue's
// steady-state churn performs zero heap allocations (tracked by
// KernelAllocCounters; bench_microkernel asserts the zero).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/slab_pool.h"
#include "common/small_function.h"
#include "common/units.h"

namespace ignem {

/// Coarse classification of a scheduled event, carried as slot metadata for
/// the kernel self-profile (Simulator::profile()). Purely observational: it
/// never participates in ordering, hashing, or dispatch, so tagging a site
/// cannot change a trace.
enum class EventClass : std::uint8_t {
  kGeneric = 0,   ///< Untagged (job control flow, tests).
  kTransfer,      ///< Bandwidth-channel completions.
  kPeriodic,      ///< Heartbeats, monitors, samplers, scrub ticks.
  kRpc,           ///< Control-plane RPC latencies (master/NN messaging).
  kMigration,     ///< Ignem slave wakes and migration pacing.
  kRetry,         ///< DFS read retry/failover backoff.
};
inline constexpr std::size_t kEventClassCount = 6;

const char* event_class_name(EventClass cls);

/// Opaque handle identifying a scheduled event; usable to cancel it.
/// Internally packs (slot + 1, generation); 0 is reserved for "invalid".
class EventHandle {
 public:
  constexpr EventHandle() = default;
  constexpr explicit EventHandle(std::uint64_t raw) : raw_(raw) {}

  static constexpr EventHandle invalid() { return EventHandle(); }

  constexpr bool valid() const { return raw_ != 0; }
  constexpr std::uint64_t raw() const { return raw_; }

  constexpr auto operator<=>(const EventHandle&) const = default;

 private:
  std::uint64_t raw_ = 0;
};

/// Pending-event set ordered by (time, seq). Not thread-safe; the simulator
/// is single-threaded by design (see Simulator).
class EventQueue {
 public:
  using Action = SmallFunction;

  /// Ladder geometry. The bucket window spans
  /// `bucket_width_micros * bucket_count` of simulated time ahead of the
  /// drain point; events past it overflow to the far heap. Defaults: 256 us
  /// buckets (NIC-latency scale, so a bucket holds one RTT's worth of
  /// traffic) x 4096 buckets ~= a 1 s window — short-delay kernel events
  /// stay in buckets, multi-second periodics (3 s heartbeats) overflow.
  struct LadderConfig {
    std::uint32_t bucket_width_micros = 256;
    std::uint32_t bucket_count = 4096;  ///< Must be a power of two.
  };

  EventQueue() : EventQueue(LadderConfig{}) {}
  explicit EventQueue(LadderConfig ladder);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Adds an event; returns a handle to cancel it later.
  EventHandle push(SimTime when, Action action,
                   EventClass cls = EventClass::kGeneric);

  /// Removes a pending event in O(log n) (O(1) for bucketed events).
  /// Returns false if the handle was already fired, already cancelled, or
  /// never issued.
  bool cancel(EventHandle handle);

  /// True when no live events remain.
  bool empty() const { return live_ == 0; }

  std::size_t live_count() const { return live_; }

  /// Time of the earliest live event. Requires !empty(). O(1): the bottom
  /// heap always holds the earliest bucketed band.
  SimTime next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  std::pair<SimTime, Action> pop();

  /// Class tag of the event the last pop() returned (profiling metadata;
  /// read it before the next pop).
  EventClass last_popped_class() const { return last_cls_; }

  /// Introspection for tests/benches: events currently in the far heap vs
  /// the bucketed band (bottom + buckets). Sums to live_count().
  std::size_t far_count() const { return far_.size(); }
  std::size_t near_count() const { return live_ - far_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Which container a live slot's entry currently sits in.
  enum Where : std::uint8_t { kInFar = 0, kInBottom = 1, kInBucket = 2 };

  struct HeapEntry {
    std::int64_t when_micros;
    std::uint64_t seq;
    std::uint32_t slot;

    bool before(const HeapEntry& o) const {
      if (when_micros != o.when_micros) return when_micros < o.when_micros;
      return seq < o.seq;
    }
  };

  struct Slot {
    Action action;
    std::uint32_t gen = 1;
    std::uint32_t pos = 0;     ///< Index within the containing structure.
    std::uint32_t bucket = 0;  ///< Ring index, valid when where == kInBucket.
    Where where = kInFar;
    EventClass cls = EventClass::kGeneric;  ///< Profiling tag (see push).
    std::uint32_t next_free = kNoSlot;  // valid only while on the free list
  };

  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  std::uint32_t acquire_slot(Action action, EventClass cls);
  void release_slot(std::uint32_t slot);

  // Generic 4-ary heap machinery shared by the far heap and the bottom.
  // place() keeps every touched slot's pos current; the slot's `where` tag
  // is set when an entry enters a container, so pos is unambiguous.
  void place(std::vector<HeapEntry>& heap, std::size_t pos, HeapEntry entry);
  void sift_up(std::vector<HeapEntry>& heap, std::size_t pos, HeapEntry entry);
  void sift_down(std::vector<HeapEntry>& heap, std::size_t pos,
                 HeapEntry entry);
  void heap_push(std::vector<HeapEntry>& heap, Where where, HeapEntry entry);
  /// Removes heap[pos] (whose slot the caller has released or relocated) by
  /// re-placing the last entry.
  void heap_remove_at(std::vector<HeapEntry>& heap, std::size_t pos);

  // Ladder plumbing.
  std::size_t bucket_index(std::int64_t when_micros) const {
    return static_cast<std::size_t>(
        (when_micros / width_micros_) & (buckets_.size() - 1));
  }
  void bucket_insert(HeapEntry entry);
  void bucket_remove(std::uint32_t slot);
  /// Moves the earliest occupied bucket into the (empty) bottom heap and
  /// advances bottom_end_; repeats until the bottom is non-empty or every
  /// bucket is empty. Maintains the invariant next_time() relies on: the
  /// bottom is non-empty whenever any bucket is.
  void refill_bottom();
  /// Ring-scan the occupancy bitmap for the first occupied bucket at or
  /// after `from`; returns its ring distance from `from`.
  std::size_t next_occupied_distance(std::size_t from) const;
  void mark_occupied(std::size_t index, bool occupied);

  /// Earliest of bottom/far front entries. Requires !empty().
  const HeapEntry& min_entry() const;

  std::vector<HeapEntry> far_;     // 4-ary heap: far-horizon overflow
  std::vector<HeapEntry> bottom_;  // 4-ary heap: the band being drained
  std::vector<std::vector<HeapEntry>> buckets_;  // ring, indexed by abs time
  std::vector<std::uint64_t> occupancy_;         // bitmap over buckets_
  std::size_t bucket_events_ = 0;  // total entries across buckets_
  std::int64_t width_micros_ = 0;
  /// Bucket-aligned boundary: events with when < bottom_end_ belong to the
  /// bottom heap, events within [bottom_end_, bottom_end_ + window) to the
  /// bucket ring, later ones to the far heap.
  std::int64_t bottom_end_ = 0;
  std::int64_t window_micros_ = 0;

  ChunkedVector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  EventClass last_cls_ = EventClass::kGeneric;
};

}  // namespace ignem
