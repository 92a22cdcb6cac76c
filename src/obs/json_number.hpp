// The one JSON number formatter for every exporter in the tree.
//
// Doubles are written as the shortest decimal string that parses back
// to the identical double (std::to_chars without a precision), so a
// consumer that reads the text with any correctly rounding parser
// (from_chars, strtod, Python's float) recovers the exact bits. NaN and
// ±Inf are not JSON numbers and are written as `null`, so one bad value
// cannot invalidate a whole export.
//
// The lint rule `json-number` (tools/leosim_lint.py) keeps the older
// printf-style "%.17g" formatting from coming back anywhere in src/.
#pragma once

#include <charconv>
#include <cmath>
#include <string>

namespace leosim::obs {

inline void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  // A shortest double needs at most 24 chars: sign, 17 digits, point,
  // "e-308".
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

}  // namespace leosim::obs
