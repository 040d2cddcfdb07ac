#include "testing/metrics.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace tdmatch {
namespace testutil {

double ScrapeValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
    }
  }
  return std::nan("");
}

std::string ScrapeLine(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      return line;
    }
  }
  return {};
}

}  // namespace testutil
}  // namespace tdmatch
