#include "engine/grouping.hpp"

namespace posg::engine {

Route ShuffleGrouping::route(const Tuple& tuple, std::size_t k) {
  (void)tuple;
  common::require(k >= 1, "ShuffleGrouping: need at least one instance");
  return Route{static_cast<common::InstanceId>(next_.fetch_add(1, std::memory_order_relaxed) % k),
               std::nullopt};
}

}  // namespace posg::engine
