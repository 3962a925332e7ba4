// Fixed-bin histograms with ASCII rendering, used by the figure benches to
// print the same artifacts the paper plots.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ignem {

/// Linear-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin so no data is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t total() const { return total_; }
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count_in_bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Fraction of samples in bin i (0 when empty histogram).
  double frequency(std::size_t i) const;

  /// Multi-line bar rendering; `label` heads the block, `unit` suffixes bins.
  std::string render(const std::string& label, const std::string& unit,
                     std::size_t bar_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Logarithmic-bin histogram for quantities spanning orders of magnitude
/// (e.g. block read times from RAM vs HDD).
class LogHistogram {
 public:
  /// Bins are powers of `base` starting at `lo` (> 0).
  LogHistogram(double lo, double base, std::size_t bins);

  void add(double x);

  std::size_t total() const { return total_; }
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count_in_bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double frequency(std::size_t i) const;

  std::string render(const std::string& label, const std::string& unit,
                     std::size_t bar_width = 50) const;

 private:
  double lo_;
  double base_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace ignem
