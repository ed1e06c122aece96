#include <random>

int seed() {
  std::random_device rd;  // fplint: ok(banned-rng): corpus fixture — entropy for a one-shot tool
  return static_cast<int>(rd());
}
