#pragma once

#include <cstdint>
#include <limits>
#include <vector>

/// Numeric summaries used by tests and benchmark harnesses.
namespace posg::metrics {

/// Streaming mean/variance/min/max (Welford's algorithm) — O(1) memory,
/// numerically stable, mergeable.
class RunningStats {
 public:
  void add(double value) noexcept;

  /// Combines two summaries as if all samples had been added to one
  /// (Chan et al.'s parallel update).
  void merge(const RunningStats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile of a sample (linear interpolation between closest
/// ranks). `p` in [0, 100]. Copies the input; callers on hot paths should
/// pre-sort and use `percentile_sorted`.
double percentile(std::vector<double> samples, double p);

/// Same, for an already ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

}  // namespace posg::metrics
