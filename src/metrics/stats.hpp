#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// Numeric summaries used by tests and benchmark harnesses.
namespace posg::metrics {

/// Counters of the graceful-degradation layer (DESIGN.md "Fault model and
/// degradation ladder"): straggler de-rating and instance rejoin.
/// Assembled by the runtime/simulator from the scheduler accessors — the
/// core library does not depend on metrics.
///
/// This struct is a programmatic snapshot for tests and the summary() log
/// line, NOT a metrics exposition path. The obs::MetricsRegistry carries
/// the one queryable truth for the same values: rejoin/health transitions
/// under `posg.scheduler.rejoins` / `posg.health.*`, and per-instance
/// de-rates under `posg.health.derate.<op>` (all registered pull-mode by
/// their owners). Do not push these fields into a registry under new
/// names — that recreates the double bookkeeping this comment retires.
struct ResilienceStats {
  /// Quarantined instances re-admitted through the rejoin handshake.
  std::uint64_t rejoins = 0;
  /// Health-monitor lifecycle transitions (Live → Suspect, * → Degraded,
  /// Suspect/Degraded → Live).
  std::uint64_t suspect_transitions = 0;
  std::uint64_t degraded_transitions = 0;
  std::uint64_t promotions = 0;
  /// Current multiplicative billing de-rate per instance (1.0 = healthy).
  std::vector<double> derate;

  /// One-line human-readable report for logs and periodic sim output.
  std::string summary() const;
};

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
