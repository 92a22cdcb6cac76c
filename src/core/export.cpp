#include "core/export.hpp"

#include <ostream>
#include <sstream>

namespace leosim::core {

void WriteCdfCsv(std::ostream& os, const std::string& value_column,
                 const std::vector<std::pair<double, double>>& cdf) {
  // Formatted on a fresh stream so the caller's stream flags never apply.
  std::ostringstream csv;
  csv.precision(17);
  csv << value_column << ",cdf\n";
  for (const auto& [value, fraction] : cdf) {
    csv << value << ',' << fraction << '\n';
  }
  os << csv.str();
}

}  // namespace leosim::core
