#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ignem {
namespace {

TEST(Histogram, BinsPartitionRange) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, CountsLandInRightBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsInsteadOfDropping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, Frequencies) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(1.5);
  h.add(3.0);
  EXPECT_NEAR(h.frequency(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.frequency(1), 1.0 / 3.0, 1e-12);
}

TEST(Histogram, FrequencyOfEmptyIsZero) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_EQ(h.frequency(0), 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), CheckFailure);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckFailure);
}

TEST(Histogram, RenderShowsCountsAndLabel) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string text = h.render("read times", "s");
  EXPECT_NE(text.find("read times (n=3)"), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
}

TEST(LogHistogram, BinEdgesArePowers) {
  LogHistogram h(0.001, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 0.001);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 0.001);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 0.01);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(LogHistogram, SpansOrdersOfMagnitude) {
  LogHistogram h(0.001, 10.0, 6);
  h.add(0.0005);  // below lo -> bin 0
  h.add(0.005);   // bin 1: [0.001, 0.01)
  h.add(5.0);     // bin 4: [1, 10)
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
}

TEST(LogHistogram, ClampsAboveRange) {
  LogHistogram h(1.0, 10.0, 3);
  h.add(1e9);
  EXPECT_EQ(h.count_in_bin(2), 1u);
}

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 3), CheckFailure);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 3), CheckFailure);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), CheckFailure);
}

}  // namespace
}  // namespace ignem
