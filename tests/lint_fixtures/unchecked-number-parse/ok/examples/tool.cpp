// Fixture: parses through the shared whole-string parser. Prose naming
// atof(...) in a comment, or "strtol(" inside a string, must not trigger.
#include <cstdio>
#include <optional>

#include "flags.hpp"

int main(int argc, char** argv) {
  const std::optional<double> freq =
      argc > 1 ? leosim::cli::ParseDouble(argv[1]) : 14.25;
  if (!freq) {
    std::fprintf(stderr, "not a number (unlike strtol(\"10x\"))\n");
    return 2;
  }
  return 0;
}
