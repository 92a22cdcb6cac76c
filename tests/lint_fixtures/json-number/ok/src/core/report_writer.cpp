// Fixture: writes JSON numbers through obs::AppendJsonNumber. Prose that
// mentions the old "%.17g" format in a comment must not trigger, nor
// does a human-readable "%.3f" table format.
#include <cstdio>
#include <string>

#include "obs/json_number.hpp"

namespace leosim {

void AppendValue(std::string* out, double value) {
  obs::AppendJsonNumber(out, value);
}

void PrintRow(double value) { std::printf("%.3f\n", value); }

}  // namespace leosim
