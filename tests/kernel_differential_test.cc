// Randomized differential tests: the rewritten kernel hot paths versus the
// naive pre-rewrite reference implementations (bench/reference_kernel.h).
//
// The ladder EventQueue and the virtual-time bandwidth model are only
// allowed to be *faster* — over randomized op streams their observable
// behavior (pop order, completion times to the exact microsecond, callback
// order, cancel/abort results) must be identical to the naive versions.
// 10k mixed operations per seed, 20 seeds each.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "bench/reference_kernel.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/bandwidth_resource.h"
#include "test_util.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// EventQueue vs ReferenceEventQueue: mixed push/cancel/pop.

struct QueueVariant {
  const char* name;
  EventQueue::LadderConfig ladder;
};

// The default geometry and a deliberately tiny ladder (8 us x 64 buckets)
// whose window wraps thousands of times per seed so the far-heap overflow,
// re-anchoring, and ring-wrap paths all get exercised.
const QueueVariant kQueueVariants[] = {
    {"ladder-default", {}},
    {"ladder-tiny", {8, 64}},
};

TEST(KernelDifferential, EventQueueMatchesReference) {
  for (const QueueVariant& variant : kQueueVariants) {
  SCOPED_TRACE(variant.name);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(test::seed_for(seed * 1000));
    EventQueue fast(variant.ladder);
    reference::ReferenceEventQueue naive;

    std::vector<EventHandle> fast_handles;
    std::vector<std::uint64_t> naive_handles;
    std::vector<std::pair<std::int64_t, int>> fast_fired, naive_fired;

    int next_id = 0;
    std::int64_t horizon = 0;
    for (int op = 0; op < 10000; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55 || fast_handles.empty()) {
        // Push at a random time, sometimes colliding with earlier times to
        // exercise FIFO-within-timestamp ordering.
        horizon += rng.uniform_int(0, 3);
        const SimTime when(horizon + rng.uniform_int(0, 50));
        const int id = next_id++;
        fast_handles.push_back(fast.push(
            when, [id, &fast_fired, when] {
              fast_fired.emplace_back(when.count_micros(), id);
            }));
        naive_handles.push_back(naive.push(
            when, [id, &naive_fired, when] {
              naive_fired.emplace_back(when.count_micros(), id);
            }));
      } else if (roll < 0.85) {
        // Cancel a random handle; double-cancels and stale handles must
        // agree too.
        const std::size_t victim =
            rng.uniform_int(0, static_cast<int>(fast_handles.size()) - 1);
        EXPECT_EQ(fast.cancel(fast_handles[victim]),
                  naive.cancel(naive_handles[victim]));
      } else {
        // Drain a few events.
        const int drain = rng.uniform_int(1, 4);
        for (int i = 0; i < drain && !fast.empty(); ++i) {
          ASSERT_FALSE(naive.empty());
          EXPECT_EQ(fast.next_time(), naive.next_time());
          auto [fw, fa] = fast.pop();
          auto [nw, na] = naive.pop();
          EXPECT_EQ(fw, nw);
          fa();
          na();
        }
      }
      ASSERT_EQ(fast.live_count(), naive.live_count()) << "op " << op;
    }
    while (!fast.empty()) {
      ASSERT_FALSE(naive.empty());
      auto [fw, fa] = fast.pop();
      auto [nw, na] = naive.pop();
      EXPECT_EQ(fw, nw);
      fa();
      na();
    }
    EXPECT_TRUE(naive.empty());
    ASSERT_EQ(fast_fired, naive_fired) << "seed " << seed;
  }
  }
}

// ---------------------------------------------------------------------------
// SharedBandwidthResource vs ReferenceBandwidthResource: identical op
// scripts replayed on two independent simulators.

struct BwOp {
  std::int64_t at_micros;
  Bytes bytes;      // transfer size for starts
  int abort_of;     // -1 for a start; otherwise index of the op to abort
};

struct Completion {
  std::int64_t at_micros;
  int op_index;
  bool operator==(const Completion&) const = default;
};

std::vector<BwOp> random_script(Rng& rng, int ops) {
  std::vector<BwOp> script;
  std::int64_t t = 0;
  int starts = 0;
  for (int i = 0; i < ops; ++i) {
    t += rng.uniform_int(0, 200000);  // bursts and lulls, up to 0.2 s apart
    BwOp op;
    op.at_micros = t;
    if (starts > 0 && rng.next_double() < 0.25) {
      op.abort_of = rng.uniform_int(0, starts - 1);
      op.bytes = 0;
    } else {
      op.abort_of = -1;
      // Nice power-of-two sizes, ragged sizes, and the occasional zero.
      const double kind = rng.next_double();
      if (kind < 0.1) {
        op.bytes = 0;
      } else if (kind < 0.6) {
        op.bytes = static_cast<Bytes>(rng.uniform_int(1, 64)) * kMiB;
      } else {
        op.bytes = rng.uniform_int(1, 256 * 1024 * 1024);
      }
      ++starts;
    }
    script.push_back(op);
  }
  return script;
}

// Replays `script` against the production model; `naive` switches to the
// reference. Returns completions in firing order.
template <typename Resource, typename Handle>
std::vector<Completion> replay(const std::vector<BwOp>& script,
                               Simulator& sim, Resource& res,
                               std::vector<Handle>& handles) {
  std::vector<Completion> completions;
  std::vector<int> start_index;  // start ordinal -> script index
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (script[i].abort_of < 0) start_index.push_back(static_cast<int>(i));
  }
  handles.resize(script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const BwOp& op = script[i];
    sim.schedule_at(SimTime(op.at_micros), [&, i, op] {
      if (op.abort_of >= 0) {
        const std::size_t target =
            static_cast<std::size_t>(start_index[op.abort_of]);
        res.abort(handles[target]);
      } else {
        const int idx = static_cast<int>(i);
        handles[i] = res.start(op.bytes, [&completions, &sim, idx] {
          completions.push_back({sim.now().count_micros(), idx});
        });
      }
    });
  }
  sim.run();
  return completions;
}

class BandwidthDifferential
    : public ::testing::TestWithParam<BandwidthProfile> {};

TEST_P(BandwidthDifferential, MatchesReferenceExactly) {
  const BandwidthProfile profile = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(test::seed_for(seed * 77));
    const std::vector<BwOp> script = random_script(rng, 500);

    Simulator naive_sim;
    reference::ReferenceBandwidthResource naive(naive_sim, profile);
    std::vector<std::uint64_t> naive_handles;
    const std::vector<Completion> naive_done =
        replay(script, naive_sim, naive, naive_handles);

    Simulator fast_sim;
    SharedBandwidthResource fast(fast_sim, "fast", profile);
    std::vector<TransferHandle> fast_handles;
    const std::vector<Completion> fast_done =
        replay(script, fast_sim, fast, fast_handles);

    ASSERT_EQ(fast_done.size(), naive_done.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fast_done.size(); ++i) {
      ASSERT_EQ(fast_done[i], naive_done[i])
          << "seed " << seed << " completion " << i << ": fast ("
          << fast_done[i].at_micros << ", op " << fast_done[i].op_index
          << ") vs naive (" << naive_done[i].at_micros << ", op "
          << naive_done[i].op_index << ")";
    }
    EXPECT_EQ(fast.total_bytes_completed(), naive.total_bytes_completed());
    EXPECT_EQ(fast.active_transfers(), naive.active_transfers());
    EXPECT_EQ(fast_sim.now(), naive_sim.now()) << "seed " << seed;
  }
}

BandwidthProfile hdd_profile() {
  BandwidthProfile p;
  p.sequential_bw = mib_per_sec(144);
  p.degradation = 0.4;
  return p;
}

BandwidthProfile flat_profile() {
  BandwidthProfile p;
  p.sequential_bw = mib_per_sec(100);
  p.degradation = 0.0;
  return p;
}

BandwidthProfile memory_profile() {
  BandwidthProfile p;
  p.sequential_bw = gib_per_sec(8);
  p.degradation = 0.0;
  p.per_stream_cap = gib_per_sec(2);
  return p;
}

BandwidthProfile ragged_profile() {
  BandwidthProfile p;
  p.sequential_bw = 123456789.0;
  p.degradation = 0.17;
  p.per_stream_cap = 61728394.5;
  return p;
}

INSTANTIATE_TEST_SUITE_P(Profiles, BandwidthDifferential,
                         ::testing::Values(hdd_profile(), flat_profile(),
                                           memory_profile(),
                                           ragged_profile()));

}  // namespace

// Prints a profile as a name token: ctest names a parameterised test by
// what gtest prints for its parameter, and gtest's fallback prints raw
// bytes. Found by ADL, so it lives in BandwidthProfile's namespace.
void PrintTo(const BandwidthProfile& p, std::ostream* os) {
  *os << "bw" << static_cast<std::int64_t>(p.sequential_bw) << "_deg"
      << std::lround(p.degradation * 100) << "pct_cap";
  if (std::isinf(p.per_stream_cap)) {
    *os << "none";
  } else {
    *os << static_cast<std::int64_t>(p.per_stream_cap);
  }
}

}  // namespace ignem
