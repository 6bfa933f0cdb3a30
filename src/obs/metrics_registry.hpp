#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"

/// Metrics substrate: named counters, gauges, and log-bucketed latency
/// histograms behind a registry whose `snapshot()` serializes to JSON
/// (read by tools/obs_report.py). Hot-path recording is wait-free
/// (relaxed atomics, O(1)); registration and snapshotting take a mutex
/// and are meant for startup / reporting cadence, not per-tuple work.
///
/// Throw contract: `record`/`add`/`set`/`value` never throw; registry
/// lookups throw `std::invalid_argument` on name collisions across
/// metric kinds and may propagate `std::bad_alloc`.
namespace posg::obs {

/// Monotone event counter. `add` is a single relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram over unsigned values (typically nanoseconds):
/// bucket 0 holds exact zeros, bucket i (1 <= i <= 63) holds values in
/// [2^(i-1), 2^i), and the top bucket 64 is the overflow bucket for
/// values >= 2^63. `record` is O(1) — a `bit_width` and three relaxed
/// fetch_adds.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Bucket index a value lands in (also the exponent of its upper bound).
  static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  /// Inclusive lower bound of bucket `i` (0 for the first two buckets).
  static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
    return i <= 1 ? 0 : std::uint64_t{1} << (i - 1);
  }

  /// Exclusive upper bound of bucket `i`; the overflow bucket reports
  /// UINT64_MAX.
  static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    return i >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << i;
  }

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of one histogram, detached from the atomics.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Dense per-bucket counts, size `Histogram::kBuckets`.
  std::vector<std::uint64_t> buckets;
};

/// Point-in-time copy of a whole registry. Plain data: safe to move
/// across threads and serialize.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Compact single-object JSON (schema tag "posg-metrics/1"), the format
  /// tools/obs_report.py renders.
  std::string to_json() const;
};

/// Owner of named metric instruments. Handles returned by
/// `counter`/`gauge`/`histogram` are stable for the registry's lifetime
/// (instruments are never deleted), so components keep raw references.
///
/// For state that already lives elsewhere (scheduler tallies guarded by a
/// runtime mutex, engine vectors), `counter_fn`/`gauge_fn` register pull
/// callbacks evaluated only at `snapshot()` time — zero hot-path cost.
/// Callbacks must be safe to invoke from whichever thread snapshots; wrap
/// them in the owning component's lock if the source is not atomic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. A name maps to exactly one
  /// kind: asking for "x" as a counter after registering it as a gauge
  /// (or as a pull callback) throws `std::invalid_argument`.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a pull-mode counter/gauge evaluated at snapshot time.
  /// Re-registering an existing name replaces the callback (components
  /// that restart — e.g. a rejoined instance — re-bind safely).
  void counter_fn(const std::string& name, std::function<std::uint64_t()> fn);
  void gauge_fn(const std::string& name, std::function<double()> fn);

  /// Point-in-time copy of every instrument (push handles read relaxed,
  /// pull callbacks invoked inline).
  Snapshot snapshot() const;

 private:
  void check_name_free(const std::string& name, int kind) const REQUIRES(mutex_);

  // kMetricsRegistry is the lowest rank in the order: snapshot() invokes
  // pull callbacks that acquire component locks (e.g. SchedulerRuntime's
  // kSchedulerState mutex) while this lock is held — see DESIGN.md §12.
  mutable Mutex mutex_{"obs::MetricsRegistry::mutex_", lock_rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mutex_);
  std::map<std::string, std::function<std::uint64_t()>> counter_fns_ GUARDED_BY(mutex_);
  std::map<std::string, std::function<double()>> gauge_fns_ GUARDED_BY(mutex_);
};

}  // namespace posg::obs
