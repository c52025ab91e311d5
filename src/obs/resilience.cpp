#include "obs/resilience.hpp"

#include <map>
#include <utility>

namespace hxsim::obs {

void DegradationSeries::add(DegradationSample sample) {
  samples_.push_back(std::move(sample));
}

bool DegradationSeries::retention_monotone() const {
  std::map<std::pair<std::string, std::string>, double> last;
  for (const DegradationSample& s : samples_) {
    const auto key = std::make_pair(s.fabric, s.engine);
    const auto it = last.find(key);
    if (it != last.end() && s.retention > it->second + 1e-12) return false;
    last[key] = s.retention;
  }
  return true;
}

bool DegradationSeries::all_acyclic(std::string_view engine) const {
  for (const DegradationSample& s : samples_)
    if (s.engine == engine && !s.cdg_acyclic) return false;
  return true;
}

}  // namespace hxsim::obs
