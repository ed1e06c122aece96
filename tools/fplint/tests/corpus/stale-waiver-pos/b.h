#pragma once

struct Tail {
  int x_ = 0;
};
// fplint: ok(wall-clock): dangles at end of file, attaches to nothing — expect[stale-waiver]
