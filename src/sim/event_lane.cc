#include "sim/event_lane.h"

namespace flowpulse::sim {

inline void EventLane::fire_next() {
  EventQueue::Event ev = queue_.pop();
  FP_AUDIT(ev.at >= now_, "event-monotonicity", "simulator", events_executed_, now_.ps(),
           "popped event at " + std::to_string(ev.at.ps()) + "ps behind clock");
#if FP_AUDIT_ENABLED
  // Catches what monotonicity cannot: an event at the current picosecond
  // whose (sched, prov) sorts before one already run, e.g. a cross-lane
  // import staged with an earlier schedule instant.
  FP_AUDIT(!audit_popped_any_ || EventQueue::earlier(audit_last_popped_, ev), "event-order",
           "simulator", events_executed_, now_.ps(),
           "popped (at, sched, prov) = (" + std::to_string(ev.at.ps()) + ", " +
               std::to_string(ev.sched.ps()) + ", " + std::to_string(ev.prov) +
               ") not after the previous (" + std::to_string(audit_last_popped_.at.ps()) +
               ", " + std::to_string(audit_last_popped_.sched.ps()) + ", " +
               std::to_string(audit_last_popped_.prov) + ")");
  audit_popped_any_ = true;
  audit_last_popped_.at = ev.at;
  audit_last_popped_.sched = ev.sched;
  audit_last_popped_.prov = ev.prov;
#endif
  now_ = ev.at;
  ++events_executed_;
  ev.fn();
}

void EventLane::run() { run_until(Time::max()); }

void EventLane::run_until(Time deadline) {
  // A stop() issued before the run (or between run segments) halts this run
  // before it starts: zero events, clock untouched. The pending request is
  // consumed either way, so the *next* run proceeds.
  if (stopped_) {
    stopped_ = false;
    return;
  }
  FP_TRACE(*this, kRunStart, "sim", 0, 0, queue_.size(), 0.0, "");
  bool halted = false;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    fire_next();
    if (stopped_) {
      halted = true;
      stopped_ = false;  // the stop is consumed by the run it halted
      break;
    }
  }
  if (!halted && deadline != Time::max() && now_ < deadline) now_ = deadline;
  FP_TRACE(*this, kRunStop, "sim", 0, 0, events_executed_, 0.0,
           halted ? "stopped" : "drained");
#if FP_AUDIT_ENABLED
  // Quiesce = the queue drained on its own. A stop() or a deadline exit
  // leaves work in flight, where conservation legitimately has bytes on
  // the wire.
  if (!halted && queue_.empty()) audit_on_quiesce();
#endif
}

void EventLane::fast_forward(Time to) {
  if (to <= now_) return;  // nothing to synthesize: not a fast-forward
  ++fast_forwards_;
  FP_TRACE(*this, kFidelity, "sim", 0, 0, static_cast<std::uint64_t>(to.ps()), 0.0,
           "fast-forward");
  run_until(to);
}

void EventLane::stage_inbox() {
  // Merge order across slots is irrelevant: the queue's provenance key
  // (fire_at, insert_at, src_lane, seq) totally orders the messages no
  // matter when they are inserted.
  for (std::vector<LaneMessage>& slot : inbox_) {
    for (LaneMessage& m : slot) merge_one(m);
    slot.clear();
  }
}

Time EventLane::next_event_bound() const {
  return queue_.empty() ? Time::max() : queue_.next_time();
}

void EventLane::merge_one(LaneMessage& m) {
  FP_AUDIT(m.fire_at >= now_, "event-monotonicity", "simulator", events_executed_, now_.ps(),
           "imported event at " + std::to_string(m.fire_at.ps()) + "ps behind clock");
  std::uint32_t slot;
  if (!arena_free_.empty()) {
    slot = arena_free_.back();
    arena_free_.pop_back();
    arena_[slot] = std::move(m.fn);
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(std::move(m.fn));
  }
  // The trampoline is pointer + index: well under the 24-byte event slot.
  queue_.schedule_imported(m.fire_at, m.insert_at, m.src_lane, m.seq,
                           [this, slot] { fire_slot(slot); });
}

void EventLane::fire_slot(std::uint32_t slot) {
  LaneFn fn = std::move(arena_[slot]);
  arena_free_.push_back(slot);
  fn();
}

void EventLane::run_window(Time horizon) {
  while (!queue_.empty() && queue_.next_time() < horizon) fire_next();
}

#if FP_AUDIT_ENABLED
void EventLane::audit_on_quiesce() {
  for (const std::function<void()>& check : audit_quiesce_checks_) check();
}
#endif

}  // namespace flowpulse::sim
