// Light-weight statistics accumulators used by the measurement infrastructure.
#ifndef COMPCACHE_UTIL_STATS_H_
#define COMPCACHE_UTIL_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace compcache {

// Running mean / min / max / variance (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() { *this = RunningStats(); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_STATS_H_
