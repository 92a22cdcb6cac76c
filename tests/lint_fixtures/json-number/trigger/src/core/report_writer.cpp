// Fixture: formats a JSON number with its own printf-style "%.17g"
// helper instead of obs::AppendJsonNumber.
#include <cstdio>
#include <string>

namespace leosim {

void AppendValue(std::string* out, double value) {
  char tmp[40];
  std::snprintf(tmp, sizeof(tmp), "%.17g", value);  // bare nan/inf, slow
  out->append(tmp);
}

}  // namespace leosim
