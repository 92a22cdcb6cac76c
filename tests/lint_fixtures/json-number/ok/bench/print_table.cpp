// Fixture: the rule covers src/ only; bench harnesses print tables.
#include <cstdio>

int main() {
  std::printf("%.17g\n", 0.1);
  return 0;
}
