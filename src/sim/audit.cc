#include "sim/audit.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace flowpulse::sim::audit {
namespace {

// Written only by ScopedHandler on the test thread while no simulation
// runs; read on the failure path. A plain pointer keeps the passing path
// free of synchronization (parallel trial workers never touch it unless a
// violation fires, which is already a dead run).
// fplint: ok(mutable-global): test-only hook, installed by ScopedHandler
// before any simulation thread exists and read only on the failure path
Handler g_handler = nullptr;

// Same discipline as g_handler: installed before a run, read only on the
// failure path.
// fplint: ok(mutable-global): test-only hook, same access protocol as g_handler
DumpHook g_dump_hook = nullptr;
// fplint: ok(mutable-global): test-only hook, same access protocol as g_handler
void* g_dump_ctx = nullptr;

}  // namespace

void fail(Violation v) {
  if (g_dump_hook != nullptr) g_dump_hook(g_dump_ctx, v);
  if (g_handler != nullptr) {
    g_handler(v);
    // A test handler that returns instead of throwing is a test bug; fall
    // through to the fatal path rather than resuming a broken simulation.
  }
  std::fprintf(stderr,
               "[flowpulse-audit] invariant=%s entity=%s iteration=%llu t=%lldps detail=%s\n",
               v.invariant.c_str(), v.entity.c_str(),
               static_cast<unsigned long long>(v.iteration),
               static_cast<long long>(v.sim_time_ps), v.detail.c_str());
  std::fflush(stderr);
  std::abort();
}

ScopedHandler::ScopedHandler(Handler handler) : previous_{g_handler} { g_handler = handler; }

ScopedHandler::~ScopedHandler() { g_handler = previous_; }

ScopedDumpHook::ScopedDumpHook(DumpHook hook, void* ctx)
    : previous_hook_{g_dump_hook}, previous_ctx_{g_dump_ctx} {
  g_dump_hook = hook;
  g_dump_ctx = ctx;
}

ScopedDumpHook::~ScopedDumpHook() {
  g_dump_hook = previous_hook_;
  g_dump_ctx = previous_ctx_;
}

}  // namespace flowpulse::sim::audit
