// A digit separator belongs to its number; it does not open a character
// literal, so the rest of the line is still code.
#include <cstdlib>

long scaled() { return 1'000 + std::rand(); }  // expect[banned-rng]
