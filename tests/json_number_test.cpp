// Property test for obs::AppendJsonNumber, the one JSON number formatter
// every exporter writes through, plus the string encoder beside it.
//
// The claims under test, over more than a million seeded doubles (random
// bit patterns, subnormals, signed zeros, the extremes, integers up to
// 2^53 and ECEF-scale coordinates):
//   * every finite value is written as a valid JSON number that parses
//     back with std::from_chars to the identical bit pattern;
//   * NaN and ±Inf are written as `null`.
#include "obs/json_number.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace leosim::obs {
namespace {

// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool IsJsonNumber(const std::string& text) {
  size_t i = 0;
  const auto digits = [&] {
    const size_t start = i;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    return i - start;
  };
  if (i < text.size() && text[i] == '-') {
    ++i;
  }
  if (i < text.size() && text[i] == '0') {
    ++i;
  } else if (digits() == 0) {
    return false;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (digits() == 0) {
      return false;
    }
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      ++i;
    }
    if (digits() == 0) {
      return false;
    }
  }
  return i == text.size();
}

// Formats `value` and checks the text against the formatter's contract.
// Returns an empty string on success, else a description of the failure.
std::string CheckOne(double value) {
  std::string text;
  AppendJsonNumber(&text, value);
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  if (!std::isfinite(value)) {
    return text == "null" ? "" : "non-finite " + std::to_string(bits) +
                                     " written as " + text;
  }
  if (!IsJsonNumber(text)) {
    return "bits " + std::to_string(bits) + " written as non-JSON " + text;
  }
  double parsed = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || end != text.data() + text.size() ||
      std::bit_cast<uint64_t>(parsed) != bits) {
    return "bits " + std::to_string(bits) + " written as " + text +
           " does not parse back bit-identically";
  }
  return "";
}

// The seeded corpus: each family contributes kPerFamily values.
std::vector<double> Corpus() {
  constexpr int kPerFamily = 200000;
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,   -0.0,       kMax,       -kMax,
                                kMin,  -kMin,      kDenormMin, -kDenormMin,
                                0.1,   1.0 / 3.0,  9007199254740992.0,
                                1e22,  1e23,       5e-324,     123456789e20};
  std::mt19937_64 rng(20200101);
  // Random bit patterns: every exponent, NaN and Inf included.
  for (int i = 0; i < kPerFamily; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  // Subnormals: zero exponent, random mantissa and sign.
  for (int i = 0; i < kPerFamily; ++i) {
    const uint64_t mantissa = rng() & ((uint64_t{1} << 52) - 1);
    const uint64_t sign = rng() & (uint64_t{1} << 63);
    values.push_back(std::bit_cast<double>(sign | mantissa));
  }
  // Integers up to 2^53, spread over every magnitude.
  for (int i = 0; i < kPerFamily; ++i) {
    const int shift = static_cast<int>(rng() % 54);
    const uint64_t n = rng() >> (64 - 53) >> (53 - shift);
    values.push_back((rng() & 1) != 0 ? -static_cast<double>(n)
                                      : static_cast<double>(n));
  }
  // ECEF-scale coordinates (metres, up to GEO radius) and the delays and
  // capacities the trace writes next to them.
  std::uniform_real_distribution<double> ecef(-4.3e7, 4.3e7);
  std::uniform_real_distribution<double> delay(0.0, 150.0);
  for (int i = 0; i < kPerFamily; ++i) {
    values.push_back(ecef(rng));
    values.push_back(delay(rng));
  }
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  return values;
}

TEST(JsonNumberTest, ShortestTextRoundTripsBitwise) {
  const std::vector<double> values = Corpus();
  ASSERT_GE(values.size(), 1000000u);
  int failures = 0;
  for (const double value : values) {
    const std::string why = CheckOne(value);
    if (!why.empty() && ++failures <= 10) {
      ADD_FAILURE() << why;
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(JsonNumberTest, NonFiniteValuesAreNull) {
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::signaling_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    std::string text = "[";
    AppendJsonNumber(&text, value);
    EXPECT_EQ(text, "[null");
  }
}

TEST(JsonNumberTest, WritesShortestText) {
  const std::pair<double, const char*> cases[] = {
      {0.1, "0.1"},   {0.5, "0.5"},     {-0.0, "-0"},
      {100.0, "100"}, {1e22, "1e+22"}, {6371008.8, "6371008.8"}};
  for (const auto& [value, want] : cases) {
    std::string text = "x";
    AppendJsonNumber(&text, value);
    EXPECT_EQ(text, std::string("x") + want);
  }
}

// obs::AppendJsonString, the one JSON string encoder, shares the header.
TEST(JsonNumberTest, StringEscapesQuotesBackslashesAndControls) {
  std::string text = "x";
  AppendJsonString(&text, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(text, "x\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

}  // namespace
}  // namespace leosim::obs
