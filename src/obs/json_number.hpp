// The one JSON number formatter and the one JSON string encoder for
// every exporter in the tree.
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
#include <string_view>

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

// Appends `text` as a JSON string literal, quotes included: `"` and `\`
// are backslash-escaped, newline and tab written as \n and \t, and every
// other control character as \u00XX.
inline void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else if (c == '\t') {
      out->append("\\t");
    } else if (static_cast<unsigned char>(c) < 0x20) {
      constexpr char kHex[] = "0123456789abcdef";
      out->append("\\u00");
      out->push_back(kHex[c >> 4]);
      out->push_back(kHex[c & 0xf]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace leosim::obs
