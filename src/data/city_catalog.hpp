// Fills the anchor city list (cities.hpp) up to a requested size with
// deterministic synthetic secondary cities, standing in for the long tail
// of the GLA top-1000 list the paper used (DESIGN.md §3).
//
// Synthetic cities are placed by sampling an anchor metro with probability
// proportional to its population and offsetting 60-600 km in a random
// direction, rejecting water and near-duplicates. This preserves the two
// properties the experiments depend on: population-weighted geographic
// clustering and a northern-hemisphere-heavy distribution.
#pragma once

#include <cstdint>
#include <vector>

#include "data/cities.hpp"

namespace leosim::data {

// Returns `count` cities: all anchors (if count >= anchors) followed by
// synthesized secondary cities. If count is smaller than the anchor list,
// the most populous `count` anchors are returned. Deterministic in `seed`.
// Throws std::invalid_argument if count is negative.
std::vector<City> GenerateWorldCities(int count, uint64_t seed = 42);

}  // namespace leosim::data
