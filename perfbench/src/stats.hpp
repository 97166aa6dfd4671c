// Exact order statistics over raw samples.
//
// Every percentile the benchmark reports comes from here: the samples are
// kept, sorted, and read by nearest rank.  No bucketing, so a p99 is a value
// some request actually had, not a histogram bucket bound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending range, `per_mille` in [0, 1000]
// (p99 = 990): the smallest value with at least per_mille/1000 of the values
// at or below it.  Integer rank arithmetic, so no floating-point rounding
// moves the rank.  0 for an empty range.
inline double nearest_rank(const double* sorted, std::size_t n,
                           int per_mille) {
  if (n == 0) return 0.0;
  const auto q = static_cast<std::size_t>(std::clamp(per_mille, 0, 1000));
  const std::size_t rank = std::max<std::size_t>((q * n + 999) / 1000, 1);
  return sorted[rank - 1];
}

// Raw samples of one quantity.  percentile() sorts them in place, so the
// statistics need no second copy.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }

  // Makes room for n samples and touches it, so the storage is resident
  // from the start and does not grow with the number of samples added
  // (up to n).
  void reserve_resident(std::size_t n) {
    values_.resize(n);
    values_.clear();
  }

  double percentile(int per_mille) {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
    return nearest_rank(values_.data(), values_.size(), per_mille);
  }

  // How many samples lie above the nearest-rank percentile: whether the
  // sample count supports that percentile.
  std::size_t beyond(int per_mille) const {
    const std::size_t n = values_.size();
    const auto q = static_cast<std::size_t>(std::clamp(per_mille, 0, 1000));
    return n - std::min(n, std::max<std::size_t>((q * n + 999) / 1000, 1));
  }

  double mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
  }

  double sum() const {
    double s = 0.0;
    for (const double x : values_) s += x;
    return s;
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// Median of a handful of values (e.g. repeated set-up times).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v.data(), v.size(), 500);
}

}  // namespace perfbench
