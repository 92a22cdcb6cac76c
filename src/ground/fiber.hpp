// Fiber-augmentation groups (paper §8, Fig. 11): a congested metro plus
// nearby smaller cities reachable over terrestrial fiber, whose
// ground-satellite capacity the metro can borrow ("distributed GTs").
#pragma once

#include <string>
#include <vector>

#include "data/cities.hpp"

namespace leosim::ground {

struct FiberGroup {
  data::City metro;
  std::vector<data::City> satellites_cities;  // nearby smaller cities
};

// Latency of a fiber path of the given geodesic length. Fiber refractive
// index ~1.47 and ~20% route stretch over the geodesic.
double FiberLatencyMs(double geodesic_km);

// Builds a fiber group for `metro_name`: the up-to 5 most populous
// cities within 250 km of the metro (excluding the metro), drawn from
// `cities`.
FiberGroup BuildFiberGroup(const std::vector<data::City>& cities,
                           const std::string& metro_name);

}  // namespace leosim::ground
