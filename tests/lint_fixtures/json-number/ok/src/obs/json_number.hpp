#pragma once
// Fixture: the one formatter file, exempt from the rule even when it
// spells out the old format for comparison.
#include <string>

namespace leosim::obs {

inline constexpr const char kLegacyFormat[] = "%.17g";

inline void AppendJsonNumber(std::string* out, double value) {
  out->append(value == value ? "0" : "null");
}

}  // namespace leosim::obs
