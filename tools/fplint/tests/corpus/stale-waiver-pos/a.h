#pragma once
#include <map>

struct Holder {
  // fplint: ok(unordered): claims a hash table, but this is std::map — expect[stale-waiver]
  std::map<int, int> ordered_;
  std::map<int, int> other_;  // fplint: ok(pointer-key): int keys, nothing to hold back — expect[stale-waiver]
};
