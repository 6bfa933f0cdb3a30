#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/types.hpp"

namespace posg::sketch {

/// Space-Saving heavy-hitter tracker (Metwally, Agrawal & El Abbadi,
/// ICDT 2005), extended to carry per-item execution-time sums.
///
/// Keeps at most `capacity` monitored items. Any item whose true
/// frequency exceeds m / capacity is guaranteed to be monitored; the
/// classic count estimate is count ∈ [f, f + error]. For POSG we care
/// about the *mean execution time* of the heavy items, so each entry also
/// accumulates the execution times of the hits observed while the item
/// was monitored — those are exact samples of the item's cost, untouched
/// by the inheritance trick that makes the count an overestimate.
class SpaceSaving {
 public:
  struct Entry {
    /// Space-Saving count (includes the inherited floor from takeover).
    std::uint64_t count = 0;
    /// Overestimation floor inherited at takeover.
    std::uint64_t error = 0;
    /// Hits actually observed for this item since takeover.
    std::uint64_t observed = 0;
    /// Sum of the observed hits' execution times.
    common::TimeMs time_sum = 0.0;
  };

  explicit SpaceSaving(std::size_t capacity);

  /// Records one occurrence of `item` costing `execution_time`.
  void update(common::Item item, common::TimeMs execution_time);

  /// Monitored entry for `item` (nullopt when not monitored).
  std::optional<Entry> lookup(common::Item item) const;

  /// Mean execution time of `item` from exact observed samples, provided
  /// the item is monitored with at least `min_observed` genuine hits.
  /// The default threshold filters fresh takeovers whose single sample
  /// would be noise.
  std::optional<common::TimeMs> mean_time(common::Item item,
                                          std::uint64_t min_observed = 4) const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// All monitored items with their entries (serialization, tests).
  const std::unordered_map<common::Item, Entry>& entries() const noexcept { return entries_; }

  void clear();

  /// Adds another ledger's entries item-wise (count, error, observed and
  /// time_sum all sum), then keeps the `capacity` heaviest by count, ties
  /// broken toward the lower item id. Capacities must match.
  void merge_from(const SpaceSaving& other);

  /// Rebuilds the tracker from externally provided entries (wire codec).
  void restore(const std::unordered_map<common::Item, Entry>& entries);

 private:
  void index_insert(common::Item item, std::uint64_t count);
  void index_erase(common::Item item, std::uint64_t count);

  std::size_t capacity_;
  std::unordered_map<common::Item, Entry> entries_;
  /// count -> items at that count; begin() is the eviction candidate.
  std::multimap<std::uint64_t, common::Item> by_count_;
};

}  // namespace posg::sketch
