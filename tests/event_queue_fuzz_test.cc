// Differential fuzz: the ladder EventQueue and the tombstone reference
// queue (bench/reference_kernel.h) must agree — event by event — on every
// observable (pop order within and across timestamps, cancel outcomes,
// live_count, next_time) for arbitrary mixed push/cancel/pop streams. The
// ladder is also run with a deliberately tiny geometry so ring wraparound,
// band re-anchoring, and far-heap overflow all trigger many times per
// stream.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/reference_kernel.h"
#include "common/rng.h"
#include "common/units.h"

namespace ignem {
namespace {

struct Popped {
  std::int64_t when_micros;
  int id;
};

template <typename Queue, typename Handle>
class Stream {
 public:
  template <typename... Args>
  explicit Stream(Args&&... args) : queue_(std::forward<Args>(args)...) {}

  void push(std::int64_t when_micros, int id) {
    handles_.push_back(
        queue_.push(SimTime(when_micros), [this, when_micros, id] {
          popped_.push_back({when_micros, id});
        }));
  }

  // Cancels the index'th handle ever issued (which may already have fired
  // or been cancelled); returns what the queue said.
  bool cancel(std::size_t index) { return queue_.cancel(handles_[index]); }

  // Pops one event and runs it; returns its timestamp.
  std::int64_t pop() {
    auto [when, action] = queue_.pop();
    action();
    return when.count_micros();
  }

  Queue& queue() { return queue_; }
  const std::vector<Popped>& popped() const { return popped_; }
  std::size_t issued() const { return handles_.size(); }

 private:
  Queue queue_;
  std::vector<Handle> handles_;
  std::vector<Popped> popped_;
};

void fuzz_one_seed(std::uint64_t seed, EventQueue::LadderConfig config) {
  Rng rng(seed);
  Stream<reference::ReferenceEventQueue, std::uint64_t> ref;
  Stream<EventQueue, EventHandle> ladder(config);

  const std::int64_t window =
      static_cast<std::int64_t>(config.bucket_width_micros) *
      config.bucket_count;
  std::int64_t now = 0;
  std::int64_t last_popped = 0;
  int next_id = 0;
  const int kOps = 4000;

  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.next_double();
    if (roll < 0.45 || ref.queue().empty()) {
      // Push with a delay mix that exercises every classification path:
      // same-timestamp bursts, in-band, in-window, and far-horizon.
      std::int64_t delay = 0;
      switch (rng.uniform_int(0, 3)) {
        case 0: delay = 0; break;
        case 1: delay = rng.uniform_int(0, config.bucket_width_micros); break;
        case 2: delay = rng.uniform_int(0, window); break;
        case 3: delay = rng.uniform_int(0, 4 * window); break;
      }
      ref.push(now + delay, next_id);
      ladder.push(now + delay, next_id);
      ++next_id;
    } else if (roll < 0.65 && ref.issued() > 0) {
      const std::size_t index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ref.issued()) - 1));
      const bool ref_ok = ref.cancel(index);
      const bool ladder_ok = ladder.cancel(index);
      ASSERT_EQ(ref_ok, ladder_ok) << "seed " << seed << " op " << op
                                    << " cancel index " << index;
    } else {
      const std::int64_t ref_when = ref.pop();
      const std::int64_t ladder_when = ladder.pop();
      ASSERT_EQ(ref_when, ladder_when) << "seed " << seed << " op " << op;
      ASSERT_GE(ref_when, last_popped) << "seed " << seed << " op " << op;
      last_popped = ref_when;
      now = ref_when;
    }
    ASSERT_EQ(ref.queue().live_count(), ladder.queue().live_count())
        << "seed " << seed << " op " << op;
    if (!ref.queue().empty()) {
      ASSERT_EQ(ref.queue().next_time().count_micros(),
                ladder.queue().next_time().count_micros())
          << "seed " << seed << " op " << op;
    }
    ASSERT_EQ(ladder.queue().far_count() + ladder.queue().near_count(),
              ladder.queue().live_count());
  }

  // Drain both queues completely and compare the full pop transcripts:
  // identical (time, id) sequences means identical total order, including
  // FIFO within each timestamp.
  while (!ref.queue().empty()) {
    ASSERT_EQ(ref.pop(), ladder.pop());
  }
  ASSERT_TRUE(ladder.queue().empty());
  ASSERT_EQ(ref.popped().size(), ladder.popped().size());
  for (std::size_t i = 0; i < ref.popped().size(); ++i) {
    ASSERT_EQ(ref.popped()[i].when_micros, ladder.popped()[i].when_micros)
        << "seed " << seed << " pop " << i;
    ASSERT_EQ(ref.popped()[i].id, ladder.popped()[i].id)
        << "seed " << seed << " pop " << i;
  }
}

TEST(EventQueueFuzz, LadderMatchesReferenceDefaultGeometry) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fuzz_one_seed(seed, EventQueue::LadderConfig{});
  }
}

TEST(EventQueueFuzz, LadderMatchesReferenceTinyGeometry) {
  // 8 us x 64 buckets = 512 us window: the ring wraps constantly and most
  // pushes overflow to the far heap, stressing re-anchor transitions.
  for (std::uint64_t seed = 21; seed <= 40; ++seed) {
    fuzz_one_seed(seed, EventQueue::LadderConfig{8, 64});
  }
}

}  // namespace
}  // namespace ignem
