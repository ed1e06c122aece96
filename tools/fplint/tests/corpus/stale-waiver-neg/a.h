#pragma once
#include <unordered_map>

struct Holder {
  // fplint: ok(unordered): bounded lookup table, never iterated
  std::unordered_map<int, int> by_key_;
};
