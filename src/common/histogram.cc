#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <sstream>

#include "common/check.h"

namespace ignem {

namespace {

std::string render_bins(const std::string& label, const std::string& unit,
                        std::size_t bar_width, std::size_t total,
                        std::size_t bins,
                        const std::function<double(std::size_t)>& lo_of,
                        const std::function<double(std::size_t)>& hi_of,
                        const std::function<std::size_t(std::size_t)>& count_of) {
  std::ostringstream os;
  os << label << " (n=" << total << ")\n";
  std::size_t max_count = 0;
  for (std::size_t i = 0; i < bins; ++i) max_count = std::max(max_count, count_of(i));
  for (std::size_t i = 0; i < bins; ++i) {
    const std::size_t c = count_of(i);
    if (c == 0) continue;
    const auto width = max_count == 0
                           ? 0
                           : static_cast<std::size_t>(
                                 static_cast<double>(c) * static_cast<double>(bar_width) /
                                 static_cast<double>(max_count));
    os << "  [" << std::setw(10) << std::setprecision(4) << lo_of(i) << ", "
       << std::setw(10) << std::setprecision(4) << hi_of(i) << ") " << unit
       << " |" << std::string(width, '#') << " " << c;
    if (total > 0) {
      os << " (" << std::fixed << std::setprecision(1)
         << 100.0 * static_cast<double>(c) / static_cast<double>(total) << "%)"
         << std::defaultfloat;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  IGNEM_CHECK(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double span = hi_ - lo_;
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / span *
                                         static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::frequency(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

std::string Histogram::render(const std::string& label, const std::string& unit,
                              std::size_t bar_width) const {
  return render_bins(
      label, unit, bar_width, total_, counts_.size(),
      [this](std::size_t i) { return bin_lo(i); },
      [this](std::size_t i) { return bin_hi(i); },
      [this](std::size_t i) { return counts_[i]; });
}

LogHistogram::LogHistogram(double lo, double base, std::size_t bins)
    : lo_(lo), base_(base), counts_(bins, 0) {
  IGNEM_CHECK(lo > 0 && base > 1 && bins > 0);
}

void LogHistogram::add(double x) {
  std::ptrdiff_t idx = 0;
  if (x > lo_) {
    idx = static_cast<std::ptrdiff_t>(std::floor(std::log(x / lo_) / std::log(base_))) + 1;
  }
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double LogHistogram::bin_lo(std::size_t i) const {
  if (i == 0) return 0.0;
  return lo_ * std::pow(base_, static_cast<double>(i - 1));
}

double LogHistogram::bin_hi(std::size_t i) const {
  return lo_ * std::pow(base_, static_cast<double>(i));
}

double LogHistogram::frequency(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

std::string LogHistogram::render(const std::string& label,
                                 const std::string& unit,
                                 std::size_t bar_width) const {
  return render_bins(
      label, unit, bar_width, total_, counts_.size(),
      [this](std::size_t i) { return bin_lo(i); },
      [this](std::size_t i) { return bin_hi(i); },
      [this](std::size_t i) { return counts_[i]; });
}

}  // namespace ignem
