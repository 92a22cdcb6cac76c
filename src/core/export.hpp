// CSV export of experiment series, so results can be re-plotted with any
// external tool (the paper's figures are CDFs and time series).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace leosim::core {

// Writes an empirical CDF as a `value_column,cdf` header and one
// (value, cumulative_fraction) row per point. `value_column` is a plain
// column name (no comma, quote or newline); values carry 17 significant
// digits so doubles round-trip.
void WriteCdfCsv(std::ostream& os, const std::string& value_column,
                 const std::vector<std::pair<double, double>>& cdf);

}  // namespace leosim::core
