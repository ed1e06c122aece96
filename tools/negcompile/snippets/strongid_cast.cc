// static_cast between id spaces is banned (fplint strongid-cast outside
// core/) and, because the types share no conversion path, does not even
// compile: uplink→spine goes through TopologyInfo::spine_of, not a cast.
// expect-error: no matching|invalid|cannot convert
#include "net/types.h"

namespace net = flowpulse::net;

int main() {
  auto s = static_cast<net::SpineId>(net::UplinkIndex{1});
  (void)s;
  return 0;
}
