#pragma once

#include <cstdint>
#include <vector>

#include "core/trace.h"
#include "sim/audit.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

#if FP_AUDIT_ENABLED
#include <functional>
#endif

namespace flowpulse::sim {

/// One independently-clocked shard of a discrete-event simulation: an event
/// queue, a virtual clock, and a root random stream. Used two ways:
///
///  * standalone, as the classic serial simulator — `Simulator` (see
///    simulator.h) is exactly an EventLane, so a single-lane simulation is
///    byte-for-byte the engine every prior result was produced on;
///  * as one of N lanes under a `LaneRunner` (lane_runner.h), which drives
///    all lanes in conservative-PDES rounds and lets cross-lane links post
///    timestamped work into a destination lane's mailbox.
///
/// # Cross-lane mailboxes and bit-identity
///
/// A component in lane S that must run code in lane D at time
/// `now + delay` calls `post_remote(dst, delay, fn)`. The message records
///
///   insert_at = S.now()          — when the serial run would have called
///                                  schedule_in (the global insertion instant)
///   fire_at   = S.now() + delay  — when the event executes
///   src_lane  = S's lane id
///   seq       = S's monotonically increasing post counter
///
/// and is written into D's inbox slot reserved for S — one writer per slot,
/// so posting is race-free without locks. Between rounds the coordinator
/// drains every slot straight into D's event queue (stage_inbox), carrying
/// the provenance along; imports always take the queue's heap, never one
/// of its constant-delay FIFOs.
///
/// Bit-identity with the serial engine comes from the queue's ordering key
/// (see EventQueue): same-fire-time events order by schedule instant, then
/// source lane, then per-source FIFO seq. The serial engine resolves such
/// ties by its global FIFO counter, which is assigned in execution order —
/// and execution order is exactly "schedule instant, then the interleave of
/// same-instant schedulers". The provenance key therefore reproduces the
/// serial order whenever the two schedulers ran at different instants (the
/// overwhelmingly common case, and the reason an earlier merge-at-pop
/// discipline — which gave imported messages a fresh local seq and so lost
/// against older same-fire-time local events — diverged by one packet
/// serialization slot). The one approximation left: two *different* lanes
/// scheduling at the same picosecond toward the same destination order by
/// lane id rather than by the serial interleave; with per-rank start jitter
/// breaking clock symmetry this tie has never been observed in practice,
/// and the laned golden tests would catch it if it appeared.
///
/// Mailbox callables are `LaneFn` (96 B — they carry a whole Packet by
/// value), too fat for the 24-byte event slot. Merging parks the LaneFn in a
/// per-lane arena (free-list recycled) and schedules a thin
/// {lane, slot} trampoline, keeping the queued event at one cache line.
class EventLane {
 public:
  explicit EventLane(std::uint64_t seed = 1) : rng_{seed} {}

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule `fn` to run `delay` after the current time.
  void schedule_in(Time delay, EventFn fn) {
    FP_AUDIT(delay >= Time::zero(), "event-monotonicity", "simulator", events_executed_,
             now_.ps(), "negative delay " + std::to_string(delay.ps()) + "ps");
    queue_.schedule(now_ + delay, now_, lane_id_, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  void schedule_at(Time at, EventFn fn) {
    FP_AUDIT(at >= now_, "event-monotonicity", "simulator", events_executed_, now_.ps(),
             "schedule_at " + std::to_string(at.ps()) + "ps is before now");
    queue_.schedule(at, now_, lane_id_, std::move(fn));
  }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events with time <= `deadline`; the clock ends at
  /// min(deadline, time of last event) unless stopped.
  ///
  /// Stop semantics: a `stop()` issued *before* the call (or left over from
  /// a previous run segment) is honored — the run returns immediately,
  /// executing nothing and leaving the clock untouched. Either way the
  /// pending stop is consumed: after run_until returns, `stopped()` is
  /// false and the next run proceeds normally.
  void run_until(Time deadline);

  /// Hybrid-fidelity fast-forward: advance the clock to `to`, executing any
  /// events due on the way (stale retransmission timers fire as no-ops).
  /// Semantically identical to run_until, but counted separately and traced
  /// (kFidelity) so reports and flight recordings show where simulated time
  /// was synthesized rather than earned event-by-event. A no-op call
  /// (`to <= now()`) does not count as a fast-forward and emits no trace.
  void fast_forward(Time to);

  /// Request that the current (or next) run loop halt after the event in
  /// progress returns. The request is consumed by the run it halts (or by
  /// the next run_until entry, which then executes nothing).
  void stop() { stopped_ = true; }

  /// True while a stop request is pending (set by stop(), consumed by the
  /// next run_until).
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }
  [[nodiscard]] std::uint64_t fast_forwards() const { return fast_forwards_; }

  // -------------------------------------------------------------------------
  // Lane protocol (driven by LaneRunner; inert in standalone/serial use)
  // -------------------------------------------------------------------------

  /// Declare this lane's identity in an `num_lanes`-lane run and size the
  /// per-source inbox. Must be called on every lane before any post_remote.
  void configure_lane(std::uint32_t lane_id, std::uint32_t num_lanes) {
    lane_id_ = lane_id;
    inbox_.resize(num_lanes);
  }
  [[nodiscard]] std::uint32_t lane_id() const { return lane_id_; }

  /// Post `fn` to run in `dst` at `now() + delay`. Called from this lane's
  /// thread during a round; writes only dst's inbox slot for this lane
  /// (single writer), so no synchronization is needed beyond the round
  /// barrier. `delay` must be >= the runner's lookahead for the horizon
  /// invariant to hold — it is the propagation delay of the boundary link.
  void post_remote(EventLane& dst, Time delay, LaneFn fn) {
    dst.inbox_[lane_id_].push_back(
        LaneMessage{now_, now_ + delay, lane_id_, post_seq_++, std::move(fn)});
  }

  /// Coordinator only (between rounds): merge every inbox slot's messages
  /// into the event queue at their provenance positions (see class comment).
  void stage_inbox();

  /// Earliest instant at which this lane could next execute an event:
  /// the queue head (staged messages are already merged); Time::max() if
  /// idle.
  [[nodiscard]] Time next_event_bound() const;

  /// Execute every event strictly before `horizon`. Never force-advances
  /// the clock and fires no quiesce audits — the coordinator settles clocks
  /// and quiesces after the last round.
  void run_window(Time horizon);

  /// Clock parity with run_until's deadline bump: advance an idle lane's
  /// clock to `deadline` (finite deadlines only).
  void settle_to(Time deadline) {
    if (deadline != Time::max() && now_ < deadline) now_ = deadline;
  }

#if FP_AUDIT_ENABLED
  /// Register an invariant checked whenever the simulation quiesces (the
  /// event queue drains without stop()). Components register at wiring time
  /// and must outlive every subsequent run of this simulator.
  void audit_register_quiesce(std::function<void()> check) {
    audit_quiesce_checks_.push_back(std::move(check));
  }
  /// Coordinator only: fire the quiesce checks after a fully-drained laned
  /// run (the laned analogue of run_until's drain-time quiesce).
  void audit_quiesce_now() { audit_on_quiesce(); }
#endif

  /// Install (or clear, with nullptr) the flight-recorder sink that FP_TRACE
  /// call sites across all layers emit into. The sink must outlive every
  /// subsequent run of this simulator.
  void set_trace(core::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] core::TraceSink* trace() const { return trace_; }

 private:
  struct LaneMessage {
    Time insert_at;
    Time fire_at;
    std::uint32_t src_lane;
    std::uint64_t seq;
    LaneFn fn;
  };

  void merge_one(LaneMessage& m);
  void fire_slot(std::uint32_t slot);
  /// Pop the earliest event, advance the clock to it and run it.
  void fire_next();

#if FP_AUDIT_ENABLED
  void audit_on_quiesce();
  std::vector<std::function<void()>> audit_quiesce_checks_;
  /// Key of the last popped event (fn left empty), for the `event-order`
  /// invariant: popped (at, sched, prov) keys strictly increase.
  EventQueue::Event audit_last_popped_{};
  bool audit_popped_any_ = false;
#endif
  core::TraceSink* trace_ = nullptr;
  EventQueue queue_;
  Time now_ = Time::zero();
  Rng rng_;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t fast_forwards_ = 0;

  std::uint32_t lane_id_ = 0;
  std::uint64_t post_seq_ = 0;
  /// inbox_[s]: messages posted by lane s since the last stage_inbox().
  std::vector<std::vector<LaneMessage>> inbox_;
  /// Parked LaneFns of merged-but-unfired messages (see class comment).
  std::vector<LaneFn> arena_;
  std::vector<std::uint32_t> arena_free_;
};

}  // namespace flowpulse::sim
