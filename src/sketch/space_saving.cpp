#include "sketch/space_saving.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace posg::sketch {

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  common::require(capacity >= 1, "SpaceSaving: capacity must be >= 1");
}

void SpaceSaving::index_insert(common::Item item, std::uint64_t count) {
  by_count_.emplace(count, item);
}

void SpaceSaving::index_erase(common::Item item, std::uint64_t count) {
  auto [begin, end] = by_count_.equal_range(count);
  for (auto it = begin; it != end; ++it) {
    if (it->second == item) {
      by_count_.erase(it);
      return;
    }
  }
  common::ensure(false, "SpaceSaving: index out of sync");
}

void SpaceSaving::update(common::Item item, common::TimeMs execution_time) {
  common::require(execution_time >= 0.0, "SpaceSaving: negative execution time");
  auto it = entries_.find(item);
  if (it != entries_.end()) {
    index_erase(item, it->second.count);
    ++it->second.count;
    ++it->second.observed;
    it->second.time_sum += execution_time;
    index_insert(item, it->second.count);
    return;
  }

  if (entries_.size() < capacity_) {
    Entry entry;
    entry.count = 1;
    entry.observed = 1;
    entry.time_sum = execution_time;
    entries_.emplace(item, entry);
    index_insert(item, 1);
    return;
  }

  // Take over the minimum-count entry (the classic Space-Saving step).
  const auto victim_it = by_count_.begin();
  const std::uint64_t victim_count = victim_it->first;
  const common::Item victim = victim_it->second;
  by_count_.erase(victim_it);
  entries_.erase(victim);

  Entry entry;
  entry.count = victim_count + 1;
  entry.error = victim_count;
  entry.observed = 1;
  entry.time_sum = execution_time;
  entries_.emplace(item, entry);
  index_insert(item, entry.count);
}

std::optional<SpaceSaving::Entry> SpaceSaving::lookup(common::Item item) const {
  auto it = entries_.find(item);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<common::TimeMs> SpaceSaving::mean_time(common::Item item,
                                                     std::uint64_t min_observed) const {
  auto it = entries_.find(item);
  if (it == entries_.end() || it->second.observed < min_observed) {
    return std::nullopt;
  }
  return it->second.time_sum / static_cast<double>(it->second.observed);
}

void SpaceSaving::clear() {
  entries_.clear();
  by_count_.clear();
}

void SpaceSaving::merge_from(const SpaceSaving& other) {
  common::require(capacity_ == other.capacity_, "SpaceSaving: merge requires matching capacities");
  for (const auto& [item, entry] : other.entries_) {
    auto& slot = entries_[item];
    slot.count += entry.count;
    slot.error += entry.error;
    slot.observed += entry.observed;
    slot.time_sum += entry.time_sum;
  }
  if (entries_.size() > capacity_) {
    std::vector<std::pair<common::Item, Entry>> ranked(entries_.begin(), entries_.end());
    // Strict total order: count descending, item id ascending on ties.
    // With ties broken only by count, nth_element's partition (and hence
    // the surviving item *set*) depended on the unordered_map's iteration
    // order, making merged ledgers irreproducible across runs.
    std::nth_element(ranked.begin(), ranked.begin() + capacity_ - 1, ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.count != b.second.count ? a.second.count > b.second.count
                                                               : a.first < b.first;
                     });
    ranked.resize(capacity_);
    entries_.clear();
    entries_.insert(ranked.begin(), ranked.end());
  }
  by_count_.clear();
  for (const auto& [item, entry] : entries_) {
    index_insert(item, entry.count);
  }
}

void SpaceSaving::restore(const std::unordered_map<common::Item, Entry>& entries) {
  common::require(entries.size() <= capacity_, "SpaceSaving: restore exceeds capacity");
  clear();
  entries_ = entries;
  for (const auto& [item, entry] : entries_) {
    index_insert(item, entry.count);
  }
}

}  // namespace posg::sketch
