// Fixture: reads a frequency with atof, so "14.25GHz" silently becomes
// 14.25 and "abc" becomes 0.
#include <cstdlib>

int main(int argc, char** argv) {
  const double freq = argc > 1 ? std::atof(argv[1]) : 14.25;
  return freq > 0.0 ? 0 : 1;
}
