#include "core/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/stats.hpp"

namespace leosim::core {
namespace {

TEST(CsvTest, HeaderAndRows) {
  std::ostringstream os;
  WriteCdfCsv(os, "a", {{2.5, 0.5}, {3.0, 1.0}});
  EXPECT_EQ(os.str(), "a,cdf\n2.5,0.5\n3,1\n");
}

TEST(CsvTest, DoubleRoundTripPrecision) {
  std::ostringstream os;
  WriteCdfCsv(os, "v", {{0.1234567890123456, 1.0}});
  const std::string out = os.str();
  const double parsed = std::stod(out.substr(out.find('\n') + 1));
  EXPECT_DOUBLE_EQ(parsed, 0.1234567890123456);
}

TEST(CsvTest, CdfExport) {
  std::ostringstream os;
  WriteCdfCsv(os, "rtt_ms", EmpiricalCdf({3.0, 1.0, 2.0}, 3));
  EXPECT_EQ(os.str().substr(0, 11), "rtt_ms,cdf\n");
  // Three quantile rows follow the header.
  int newlines = 0;
  for (const char c : os.str()) {
    if (c == '\n') {
      ++newlines;
    }
  }
  EXPECT_EQ(newlines, 4);
}

}  // namespace
}  // namespace leosim::core
