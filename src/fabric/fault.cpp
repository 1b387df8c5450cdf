#include "fabric/fault.hpp"

#include <sstream>

namespace fabric {

std::string FaultConfig::describe() const {
  std::ostringstream oss;
  oss << "drop=" << drop << " dup=" << duplicate << " corrupt=" << corrupt
      << " corrupt_min=" << corrupt_min_size << " delay=" << delay << "@"
      << delay_us << "us brownout=" << brownout << "x" << brownout_posts
      << " rnr_storm=" << rnr_storm << "x" << rnr_storm_polls
      << " seed=" << seed << " integrity=" << (integrity_on() ? 1 : 0);
  return oss.str();
}

}  // namespace fabric
