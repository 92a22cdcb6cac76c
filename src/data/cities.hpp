// World-city dataset used to place traffic sources/sinks.
//
// The paper uses the GLA "Global City Population Estimates" top-1000 list.
// That dataset is not redistributable here, so we substitute (DESIGN.md §3):
// a curated set of ~280 real anchor metros with real coordinates and
// approximate metro populations — including every city the paper names —
// plus a deterministic population-weighted synthesizer (city_catalog.hpp)
// that fills the list to any requested size with plausible secondary
// cities clustered around the anchors on land.
#pragma once

#include <string>
#include <vector>

#include "geo/coordinates.hpp"

namespace leosim::data {

struct City {
  std::string name;
  double latitude_deg{0.0};
  double longitude_deg{0.0};
  // Metro population, in thousands.
  double population_k{0.0};

  geo::GeodeticCoord Coord() const { return {latitude_deg, longitude_deg, 0.0}; }
};

// The embedded real-city anchor list, ordered by descending population.
const std::vector<City>& AnchorCities();

// Finds an anchor city by exact name; throws std::out_of_range if absent.
const City& FindCity(const std::string& name);

// True if an anchor city with this name exists.
bool HasCity(const std::string& name);

// Index of the first city named `name` in `cities` (a model's or study's
// own list, not only the anchors); throws std::invalid_argument naming
// the city if absent.
int CityIndexByName(const std::vector<City>& cities, const std::string& name);

}  // namespace leosim::data
