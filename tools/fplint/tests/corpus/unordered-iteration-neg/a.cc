#include <map>
#include <vector>

std::map<int, int> scores_map;  // fplint: ok(mutable-global): corpus fixture for the iteration negative

int sum(const std::vector<int>& values) {
  int s = 0;
  for (int v : values) s += v;
  // A find()-sentinel comparison uses end() without begin(): not iteration.
  if (scores_map.find(3) != scores_map.end()) s += 1;
  return s;
}
