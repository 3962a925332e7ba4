// Naive reference implementations of the two simulation hot paths, kept as
// the oracle for differential tests and as the baseline bench_microkernel
// measures speedups against.
//
// These are the pre-rewrite algorithms, preserved verbatim where it
// matters:
//   - ReferenceEventQueue: std::priority_queue plus an unordered_set of
//     live sequence numbers; cancellation is lazy (tombstones skipped on
//     pop), so cancel-heavy workloads accumulate dead heap entries and pay
//     a hash probe per operation.
//   - ReferenceBandwidthResource: fair-share processor sharing that settles
//     *every* active transfer on every set change — O(n) per start, abort,
//     and completion, O(n^2) through a burst.
//
// The production kernel (src/sim/event_queue.h, a ladder of time buckets
// over an index-tracked 4-ary heap, and src/storage/bandwidth_resource.h,
// virtual-service-time PS) must match these byte-for-byte on event times,
// ordering, and callback sequence; tests/kernel_differential_test.cc and
// tests/event_queue_fuzz_test.cc drive both over randomized op streams and
// assert exact equality.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/bandwidth_resource.h"

namespace ignem::reference {

/// The old tombstone-based pending-event set.
class ReferenceEventQueue {
 public:
  using Action = std::function<void()>;

  std::uint64_t push(SimTime when, Action action) {
    IGNEM_CHECK(action != nullptr);
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq, std::move(action)});
    live_.insert(seq);
    return seq;
  }

  bool cancel(std::uint64_t seq) { return live_.erase(seq) > 0; }

  bool empty() const { return live_.empty(); }
  std::size_t live_count() const { return live_.size(); }

  SimTime next_time() {
    drop_cancelled();
    IGNEM_CHECK(!heap_.empty());
    return heap_.top().when;
  }

  std::pair<SimTime, Action> pop() {
    drop_cancelled();
    IGNEM_CHECK(!heap_.empty());
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    live_.erase(top.seq);
    return {top.when, std::move(top.action)};
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && !live_.contains(heap_.top().seq)) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> live_;
  std::uint64_t next_seq_ = 1;
};

/// The old settle-all-transfers processor-sharing model (tracing omitted).
class ReferenceBandwidthResource {
 public:
  using Callback = std::function<void()>;

  static constexpr double kEpsilonBytes = 1e-3;

  ReferenceBandwidthResource(Simulator& sim, BandwidthProfile profile)
      : sim_(sim), profile_(profile) {
    IGNEM_CHECK(profile_.sequential_bw > 0);
    last_update_ = sim_.now();
  }

  std::uint64_t start(Bytes bytes, Callback on_complete) {
    IGNEM_CHECK(bytes >= 0);
    settle();
    const std::uint64_t id = next_id_++;
    transfers_.emplace(
        id, Transfer{static_cast<double>(bytes), bytes, std::move(on_complete)});
    reschedule();
    return id;
  }

  bool abort(std::uint64_t id) {
    const auto it = transfers_.find(id);
    if (it == transfers_.end()) return false;
    settle();
    transfers_.erase(it);
    reschedule();
    return true;
  }

  std::size_t active_transfers() const { return transfers_.size(); }
  Bytes total_bytes_completed() const { return bytes_completed_; }

 private:
  struct Transfer {
    double remaining_bytes;
    Bytes total_bytes;
    Callback on_complete;
  };

  Bandwidth per_stream_rate(std::size_t n) const {
    if (n == 0) return 0;
    const double aggregate =
        profile_.sequential_bw /
        (1.0 + profile_.degradation * static_cast<double>(n - 1));
    return std::min(aggregate / static_cast<double>(n),
                    profile_.per_stream_cap);
  }

  void settle() {
    const Duration elapsed = sim_.now() - last_update_;
    last_update_ = sim_.now();
    if (elapsed <= Duration::zero() || transfers_.empty()) return;
    const Bandwidth rate = per_stream_rate(transfers_.size());
    const double progressed = rate * elapsed.to_seconds();
    for (auto& [id, t] : transfers_) {
      t.remaining_bytes = std::max(0.0, t.remaining_bytes - progressed);
    }
  }

  void reschedule() {
    if (pending_event_.valid()) {
      sim_.cancel(pending_event_);
      pending_event_ = EventHandle::invalid();
    }
    if (transfers_.empty()) return;
    const Bandwidth rate = per_stream_rate(transfers_.size());
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& [id, t] : transfers_) {
      min_remaining = std::min(min_remaining, t.remaining_bytes);
    }
    Duration eta = Duration::micros(1);
    if (min_remaining > kEpsilonBytes) {
      const double seconds = min_remaining / rate;
      eta = Duration::micros(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::ceil(seconds * 1e6))));
    }
    pending_event_ = sim_.schedule(eta, [this] { on_completion_event(); });
  }

  void on_completion_event() {
    pending_event_ = EventHandle::invalid();
    settle();
    std::vector<Callback> done;
    for (auto it = transfers_.begin(); it != transfers_.end();) {
      if (it->second.remaining_bytes <= kEpsilonBytes) {
        bytes_completed_ += it->second.total_bytes;
        done.push_back(std::move(it->second.on_complete));
        it = transfers_.erase(it);
      } else {
        ++it;
      }
    }
    reschedule();
    for (auto& cb : done) {
      cb();
    }
  }

  Simulator& sim_;
  BandwidthProfile profile_;
  std::map<std::uint64_t, Transfer> transfers_;
  std::uint64_t next_id_ = 1;
  SimTime last_update_ = SimTime::zero();
  EventHandle pending_event_ = EventHandle::invalid();
  Bytes bytes_completed_ = 0;
};

}  // namespace ignem::reference
