// Fixture: a harness flag parsed with std::stoi (throws on "abc",
// accepts "10x" as 10).
#include <string>

int Reps(const std::string& value) { return std::stoi(value); }
