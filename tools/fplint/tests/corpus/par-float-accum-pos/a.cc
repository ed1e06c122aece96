#include <mutex>

std::mutex g_mu;  // fplint: ok(mutable-global): corpus fixture — the threading marker itself

double tally(const double* xs, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += xs[i];  // expect[par-float-accum]
  double neg = 0.0;
  neg -= acc;                                // expect[par-float-accum]
  return neg;
}
