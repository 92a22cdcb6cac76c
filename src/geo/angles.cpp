#include "geo/angles.hpp"

#include <cmath>

namespace leosim::geo {

double WrapLongitudeDeg(double lon_deg) {
  double wrapped = std::fmod(lon_deg + 180.0, 360.0);
  if (wrapped < 0.0) {
    wrapped += 360.0;
  }
  return wrapped - 180.0;
}

double LongitudeDifferenceDeg(double lon_a_deg, double lon_b_deg) {
  const double diff = std::fabs(WrapLongitudeDeg(lon_a_deg - lon_b_deg));
  return diff > 180.0 ? 360.0 - diff : diff;
}

}  // namespace leosim::geo
