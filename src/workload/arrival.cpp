#include "workload/arrival.hpp"

namespace posg::workload {

double ArrivalProfile::rate_multiplier(common::TimeMs now) const {
  switch (kind) {
    case Kind::kConstant:
      return 1.0;
    case Kind::kFlashCrowd:
      return (now >= spike_start && now < spike_start + spike_duration) ? spike_factor : 1.0;
  }
  return 1.0;
}

}  // namespace posg::workload
