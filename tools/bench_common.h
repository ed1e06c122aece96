#pragma once

// Shared plumbing for flowpulse-bench and flowpulse-merge: verdict
// printing, --expect-* correctness checks, and port-file discovery.
// Operator-tool code — lives outside src/ on purpose (wall clocks and
// process exit codes are fine here).

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "daemon/flags.h"
#include "daemon/verdict.h"

namespace fptool {

using namespace flowpulse;

struct Expectations {
  bool expect_clean = false;
  bool have_link = false;
  std::uint32_t expect_leaf = 0;
  std::uint32_t expect_uplink = 0;
  bool have_iter = false;
  std::uint32_t expect_iter = 0;
};

/// Parse "LEAF:UPLINK" (e.g. --expect-link=12:5); each part must be a
/// whole number that fits 32 bits.
inline bool parse_link(const std::string& s, Expectations* e) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  const std::string_view text{s};
  if (!daemon::parse_number(text.substr(0, colon), &e->expect_leaf) ||
      !daemon::parse_number(text.substr(colon + 1), &e->expect_uplink)) {
    return false;
  }
  e->have_link = true;
  return true;
}

inline void print_verdict(const daemon::FabricVerdict& v) {
  std::printf("verdict: %s", v.flagged ? "FLAGGED" : "clean");
  if (v.flagged) {
    std::printf(" first_faulty_iteration=%u suspect_links=[", v.first_faulty_iteration.v());
    for (std::size_t i = 0; i < v.suspect_links.size(); ++i) {
      const net::LinkId link = v.suspect_links[i];
      std::printf("%s%u:%u", i == 0 ? "" : ",", link.leaf().v(), link.uplink().v());
    }
    std::printf("] alerts=%zu", v.alerts.size());
  }
  std::printf("\n");
}

/// True if the verdict satisfies every --expect-* flag (messages on stderr
/// otherwise) — the CI smoke test's pass/fail signal.
inline bool check_expectations(const daemon::FabricVerdict& v, const Expectations& e) {
  bool ok = true;
  if (e.expect_clean && v.flagged) {
    std::fprintf(stderr, "FAIL: expected a clean verdict but the fabric was flagged\n");
    ok = false;
  }
  if (e.have_link) {
    if (!v.flagged) {
      std::fprintf(stderr, "FAIL: expected link %u:%u flagged but verdict is clean\n",
                   e.expect_leaf, e.expect_uplink);
      ok = false;
    } else {
      const net::LinkId want =
          net::LinkId::of(net::LeafId{e.expect_leaf}, net::UplinkIndex{e.expect_uplink});
      bool found = false;
      for (const net::LinkId link : v.suspect_links) found = found || link == want;
      if (!found) {
        std::fprintf(stderr, "FAIL: link %u:%u not among the suspect links\n", e.expect_leaf,
                     e.expect_uplink);
        ok = false;
      }
    }
  }
  if (e.have_iter && v.flagged && v.first_faulty_iteration.v() != e.expect_iter) {
    std::fprintf(stderr, "FAIL: first faulty iteration %u, expected %u\n",
                 v.first_faulty_iteration.v(), e.expect_iter);
    ok = false;
  }
  return ok;
}

/// Read a TCP port number from a --port-file written by flowpulsed.
inline bool read_port_file(const std::string& path, std::uint16_t* port) {
  std::ifstream in{path};
  unsigned p = 0;
  if (!(in >> p) || p == 0 || p > 65535) return false;
  *port = static_cast<std::uint16_t>(p);
  return true;
}

/// Split "a,b,c" on commas.
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace fptool
