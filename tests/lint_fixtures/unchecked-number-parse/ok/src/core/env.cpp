// Fixture: the rule covers the front ends only; the library reads its
// environment with checked strtol itself.
#include <cstdlib>

int Threads(const char* raw) {
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  return end != raw && *end == '\0' ? static_cast<int>(value) : 0;
}
