#pragma once
#include <unordered_map>

struct Table {
  // fplint: ok(unordered): corpus fixture — iterated on purpose in use.cc
  std::unordered_map<int, int> scores_;
};
