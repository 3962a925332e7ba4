#include "storage/bandwidth_resource.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "sim/simulator.h"

namespace ignem {
namespace {

BandwidthProfile flat_profile(Bandwidth bw) {
  BandwidthProfile p;
  p.sequential_bw = bw;
  p.degradation = 0.0;
  return p;
}

TEST(Bandwidth, SingleTransferTakesBytesOverRate) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  bool done = false;
  res.start(100 * kMiB, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-3);
}

TEST(Bandwidth, TwoEqualTransfersShareFairly) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  double t1 = 0, t2 = 0;
  res.start(50 * kMiB, [&] { t1 = sim.now().to_seconds(); });
  res.start(50 * kMiB, [&] { t2 = sim.now().to_seconds(); });
  sim.run();
  // 100 MiB total at 100 MiB/s aggregate: both finish together at ~1 s.
  EXPECT_NEAR(t1, 1.0, 1e-3);
  EXPECT_NEAR(t2, 1.0, 1e-3);
}

TEST(Bandwidth, ShortTransferFinishesFirstThenLongSpeedsUp) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  double t_short = 0, t_long = 0;
  res.start(100 * kMiB, [&] { t_long = sim.now().to_seconds(); });
  res.start(20 * kMiB, [&] { t_short = sim.now().to_seconds(); });
  sim.run();
  // Shared until the short one drains at 0.4 s (20 MiB at 50 MiB/s each);
  // the long one then has 80 MiB left at full rate: 0.4 + 0.8 = 1.2 s.
  EXPECT_NEAR(t_short, 0.4, 1e-3);
  EXPECT_NEAR(t_long, 1.2, 1e-3);
}

TEST(Bandwidth, LateArrivalSlowsExisting) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  double t1 = 0;
  res.start(100 * kMiB, [&] { t1 = sim.now().to_seconds(); });
  sim.schedule(Duration::seconds(0.5), [&] {
    res.start(100 * kMiB, [] {});
  });
  sim.run();
  // 50 MiB drains in the first 0.5 s; the remaining 50 MiB at half rate
  // takes another 1.0 s.
  EXPECT_NEAR(t1, 1.5, 1e-3);
}

TEST(Bandwidth, DegradationShrinksAggregate) {
  Simulator sim;
  BandwidthProfile p;
  p.sequential_bw = mib_per_sec(100);
  p.degradation = 1.0;  // two streams -> aggregate halves
  SharedBandwidthResource res(sim, "hdd", p);
  double t1 = 0, t2 = 0;
  res.start(25 * kMiB, [&] { t1 = sim.now().to_seconds(); });
  res.start(25 * kMiB, [&] { t2 = sim.now().to_seconds(); });
  sim.run();
  // Aggregate 50 MiB/s shared by two: 25 MiB each at 25 MiB/s = 1 s.
  EXPECT_NEAR(t1, 1.0, 1e-3);
  EXPECT_NEAR(t2, 1.0, 1e-3);
}

TEST(Bandwidth, PerStreamCapLimitsLoneTransfer) {
  Simulator sim;
  BandwidthProfile p;
  p.sequential_bw = mib_per_sec(1000);
  p.per_stream_cap = mib_per_sec(100);
  SharedBandwidthResource res(sim, "ram", p);
  double t = 0;
  res.start(100 * kMiB, [&] { t = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(t, 1.0, 1e-3);
}

TEST(Bandwidth, ZeroByteTransferCompletes) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  bool done = false;
  res.start(0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_LE(sim.now().to_seconds(), 1e-3);
}

TEST(Bandwidth, AbortSuppressesCallbackAndFreesBandwidth) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  bool aborted_done = false;
  double t_other = 0;
  const TransferHandle h = res.start(1000 * kMiB, [&] { aborted_done = true; });
  res.start(50 * kMiB, [&] { t_other = sim.now().to_seconds(); });
  sim.schedule(Duration::seconds(0.5), [&] { EXPECT_TRUE(res.abort(h)); });
  sim.run();
  EXPECT_FALSE(aborted_done);
  // First 0.5 s shared (25 MiB done), then full rate: 0.5 + 0.25 = 0.75 s.
  EXPECT_NEAR(t_other, 0.75, 1e-3);
  EXPECT_EQ(res.active_transfers(), 0u);
}

TEST(Bandwidth, AbortAfterCompletionFails) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  const TransferHandle h = res.start(1 * kMiB, [] {});
  sim.run();
  EXPECT_FALSE(res.abort(h));
  EXPECT_FALSE(res.abort(TransferHandle::invalid()));
}

TEST(Bandwidth, CallbackCanStartNewTransfer) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  double t2 = 0;
  res.start(100 * kMiB, [&] {
    res.start(100 * kMiB, [&] { t2 = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_NEAR(t2, 2.0, 1e-3);
}

TEST(Bandwidth, BytesCompletedAccumulates) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  res.start(10 * kMiB, [] {});
  res.start(20 * kMiB, [] {});
  sim.run();
  EXPECT_EQ(res.total_bytes_completed(), 30 * kMiB);
}

TEST(Bandwidth, BusyTimeTracksActivity) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  res.start(100 * kMiB, [] {});
  sim.run();
  // Idle gap, then more work.
  sim.schedule(Duration::seconds(1), [&] { res.start(100 * kMiB, [] {}); });
  sim.run();
  EXPECT_NEAR(res.busy_time().to_seconds(), 2.0, 1e-2);
}

TEST(Bandwidth, ManyConcurrentTransfersAllComplete) {
  Simulator sim;
  SharedBandwidthResource res(sim, "disk", flat_profile(mib_per_sec(100)));
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    res.start((i + 1) * kMiB, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(res.total_bytes_completed(), 50 * 51 / 2 * kMiB);
}

// Property sweep: byte conservation — total completion time of a batch is
// never shorter than total bytes / best-case aggregate bandwidth, for any
// profile in the sweep.
struct ProfileCase {
  double seq_mib;
  double degradation;
  int transfers;
};

// Prints a case as a name token: ctest names a parameterised test by what
// gtest prints for its parameter, and gtest's fallback prints raw bytes,
// padding included.
void PrintTo(const ProfileCase& c, std::ostream* os) {
  *os << "mib" << c.seq_mib << "_deg" << std::lround(c.degradation * 100)
      << "pct_" << c.transfers << "xfers";
}

class BandwidthPropertyTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(BandwidthPropertyTest, CompletionRespectsCapacityBound) {
  const ProfileCase c = GetParam();
  Simulator sim;
  BandwidthProfile p;
  p.sequential_bw = mib_per_sec(c.seq_mib);
  p.degradation = c.degradation;
  SharedBandwidthResource res(sim, "sweep", p);
  const Bytes each = 10 * kMiB;
  int done = 0;
  for (int i = 0; i < c.transfers; ++i) res.start(each, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, c.transfers);
  const double min_seconds =
      static_cast<double>(each * c.transfers) / mib_per_sec(c.seq_mib);
  EXPECT_GE(sim.now().to_seconds() + 1e-6, min_seconds);
  EXPECT_EQ(res.active_transfers(), 0u);
  EXPECT_EQ(res.total_bytes_completed(), each * c.transfers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BandwidthPropertyTest,
    ::testing::Values(ProfileCase{50, 0.0, 1}, ProfileCase{50, 0.0, 8},
                      ProfileCase{100, 0.5, 4}, ProfileCase{100, 0.5, 16},
                      ProfileCase{200, 1.0, 2}, ProfileCase{200, 1.0, 32},
                      ProfileCase{1000, 0.05, 10}, ProfileCase{10, 2.0, 5}));

}  // namespace
}  // namespace ignem
