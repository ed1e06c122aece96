#include "sim/event_queue.h"

#include <bit>
#include <cassert>
#include <utility>

namespace flowpulse::sim {

void EventQueue::schedule(Time at, Time sched, std::uint32_t src, EventFn fn) {
  Event e{at, sched, pack_provenance(src, next_seq_++), std::move(fn)};
  const unsigned fifo = fifo_for(at - sched);
  // Tail guard: a FIFO stays sorted only if nothing enters before its tail.
  if (fifo != kHeap && (fifos_[fifo].empty() || !earlier(e, fifos_[fifo].back()))) {
    push(std::move(e), fifo);
  } else {
    push(std::move(e), kHeap);
  }
}

void EventQueue::schedule_imported(Time at, Time sched, std::uint32_t src, std::uint64_t seq,
                                   EventFn fn) {
  ++next_seq_;  // accounting parity: an import is one scheduled event
  push(Event{at, sched, pack_provenance(src, seq), std::move(fn)}, kHeap);
}

inline unsigned EventQueue::fifo_for(Time delay) {
  for (unsigned i = 0; i < kFifos; ++i) {
    if (fifo_delay_[i] == delay) return i;
  }
  const unsigned idle = ~busy_ & ((1u << kFifos) - 1);
  if (idle == 0) return kHeap;
  const unsigned i = static_cast<unsigned>(std::countr_zero(idle));
  fifo_delay_[i] = delay;
  return i;
}

inline void EventQueue::push(Event&& e, unsigned source) {
  // A tail pushed behind a FIFO's existing head cannot be the earliest event.
  const bool may_lead = source == kHeap || fifos_[source].empty();
  if (source == kHeap) {
    push_heap(std::move(e));
  } else {
    fifos_[source].push_back(std::move(e));
    busy_ |= 1u << source;
  }
  if (size_++ == 0 || (may_lead && best_ != source && earlier(head(source), head(best_)))) {
    best_ = source;
  }
}

EventQueue::Event EventQueue::pop() {
  assert(size_ > 0);
  --size_;
  Event ev = best_ == kHeap ? pop_heap() : pop_fifo(best_);
  refresh_best();
  return ev;
}

inline EventQueue::Event EventQueue::pop_fifo(unsigned i) {
  Event ev = fifos_[i].pop_front();
  if (fifos_[i].empty()) busy_ &= ~(1u << i);
  return ev;
}

inline void EventQueue::refresh_best() {
  unsigned best = kHeap;
  const Event* least = heap_.empty() ? nullptr : &heap_.front();
  for (unsigned busy = busy_; busy != 0; busy &= busy - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(busy));
    const Event& h = fifos_[i].front();
    if (least == nullptr || earlier(h, *least)) {
      least = &h;
      best = i;
    }
  }
  best_ = best;
}

void EventQueue::push_heap(Event&& entry) {
  std::size_t i = heap_.size();
  heap_.emplace_back();  // open a hole at the end; default EventFn is empty
  // Hole-based sift-up: shift later parents down into the hole (one move
  // per level instead of a three-move swap), then settle the new entry.
  // Full-key comparison: an imported cross-lane entry can carry *earlier*
  // provenance than a same-time entry already in the heap, so comparing
  // times alone is no longer exact the way it was pre-provenance.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(entry);
}

EventQueue::Event EventQueue::pop_heap() {
  Event ev = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down_from(0, std::move(last));
  return ev;
}

void EventQueue::sift_down_from(std::size_t i, Event e) {
  // Hole-based sift-down: pull earlier children up into the hole, then
  // settle `e` where it belongs.
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = 2 * i + 1;
    if (best >= n) break;
    const std::size_t r = best + 1;
    if (r < n && earlier(heap_[r], heap_[best])) best = r;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(e);
}

}  // namespace flowpulse::sim
