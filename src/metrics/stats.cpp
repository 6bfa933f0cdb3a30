#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/types.hpp"

namespace posg::metrics {

std::string ResilienceStats::summary() const {
  std::ostringstream out;
  out << "rejoins=" << rejoins << " health[suspect=" << suspect_transitions
      << " degraded=" << degraded_transitions << " promoted=" << promotions << "] derate=[";
  for (std::size_t op = 0; op < derate.size(); ++op) {
    if (op > 0) {
      out << ' ';
    }
    out << derate[op];
  }
  out << ']';
  return out.str();
}

void RunningStats::add(double value) noexcept {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  const double combined_mean =
      mean_ + delta * static_cast<double>(other.count_) / total;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = combined_mean;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  common::require(!sorted.empty(), "percentile: empty sample");
  common::require(p >= 0.0 && p <= 100.0, "percentile: p must be in [0, 100]");
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, sorted.size() - 1);
  const double fraction = rank - static_cast<double>(low);
  return sorted[low] + fraction * (sorted[high] - sorted[low]);
}

}  // namespace posg::metrics
