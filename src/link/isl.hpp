// Laser inter-satellite link parameters (paper §2: 100 Gbps-class laser
// links forming a +Grid).
#pragma once

namespace leosim::link {

struct IslConfig {
  double capacity_gbps{100.0};
};

}  // namespace leosim::link
