#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/ring.h"
#include "sim/inline_fn.h"
#include "sim/time.h"

namespace flowpulse::sim {

/// The per-event unit of work. An allocation-free small-buffer callable:
/// scheduling an event never touches the heap (see inline_fn.h) — the only
/// allocations on the schedule path are the amortized growth of the event
/// queue's own storage.
using EventFn = InlineFn;

/// Priority queue of timed events ordered by (fire time, schedule time,
/// source lane, per-source seq).
///
/// The provenance fields exist for the sharded-event-lane engine's
/// bit-identity contract. In a serial run every event is scheduled by the
/// one lane (src constant) and seq is assigned in execution order, which is
/// non-decreasing in schedule time — so the full key orders exactly like
/// the classic (fire time, FIFO seq) key and serial behavior is unchanged.
/// In a laned run, a cross-lane message imported via schedule_imported
/// carries the *source* lane's schedule instant and post counter, which
/// slots it among same-fire-time events precisely where the serial engine's
/// global FIFO counter would have: events whose schedulers ran earlier fire
/// first. (Only the sub-picosecond interleave of two *different* lanes
/// scheduling at the same instant is approximated — by source-lane id; see
/// event_lane.h.)
///
/// # Constant-delay FIFOs
///
/// A packet simulator schedules almost every event at one of a few fixed
/// delays `at − sched` (link propagation, one serialization time per
/// packet size, the RTO floor). A lane's clock never runs backwards and its
/// seq only grows, so events it schedules with equal delay arrive already
/// in key order. Each of kFifos rings is bound to one delay and takes those
/// events in O(1); the binary heap keeps cross-lane imports, delays with no
/// FIFO free, and any entry that would sort before its FIFO's tail (a
/// caller whose `sched` went backwards). Every FIFO is therefore sorted, and
/// pop() takes the least of the FIFO heads and the heap top — the same
/// event a single heap would yield, so the pop sequence is unchanged by
/// construction. The source of the least head is cached, which makes
/// next_time() O(1). A FIFO is rebound to a new delay only while empty.
///
/// There is deliberately no cancellation: components that need revocable
/// timers (e.g. retransmission timeouts) check their own state when the
/// event fires and ignore stale firings.
class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`, recorded as scheduled now (the
  /// caller's clock `sched`) by lane `src`. FIFO among fully-equal keys.
  void schedule(Time at, Time sched, std::uint32_t src, EventFn fn);

  /// Import a cross-lane message with its source-side provenance: the
  /// source lane's clock when it posted and its post counter. Bumps the
  /// scheduled_total() accounting but not the local FIFO counter's order
  /// role — ordering against local events comes entirely from the key.
  void schedule_imported(Time at, Time sched, std::uint32_t src, std::uint64_t seq,
                         EventFn fn);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest event. Must not be called when empty().
  [[nodiscard]] Time next_time() const { return head(best_).at; }

  struct Event {
    Time at;
    Time sched;
    std::uint64_t prov = 0;  ///< packed (src lane, per-source seq) provenance
    EventFn fn;
  };
  static_assert(sizeof(Event) <= 64, "an event should stay within one cache line");

  /// Pop and return the earliest event. Must not be called when empty().
  Event pop();

  /// Total events ever scheduled (for throughput accounting).
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }

  /// Source lane in the top 16 bits, per-source FIFO counter in the low 48
  /// (2.8e14 events per source before wrap — and a wrap could only matter
  /// between two events tied at the same (fire, schedule) picosecond, which
  /// can never be 2^48 schedules apart). Packing both into one word keeps
  /// an Event at one cache line.
  [[nodiscard]] static constexpr std::uint64_t pack_provenance(std::uint32_t src,
                                                               std::uint64_t seq) {
    return (static_cast<std::uint64_t>(src) << 48) | (seq & ((1ull << 48) - 1));
  }

  /// Strict total order of the queue: (fire time, schedule time, provenance).
  [[nodiscard]] static bool earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.sched != b.sched) return a.sched < b.sched;  // serial schedule order
    return a.prov < b.prov;  // (src lane, per-source seq): FIFO within a source
  }

 private:
  /// Constant-delay FIFOs; 99.96% of a 1k-host Clos run's events use four
  /// delays, so eight leave room for a second link speed or packet size.
  static constexpr unsigned kFifos = 8;
  /// Source id of the heap, next to FIFO ids 0..kFifos-1.
  static constexpr unsigned kHeap = kFifos;

  [[nodiscard]] const Event& head(unsigned source) const {
    return source == kHeap ? heap_.front() : fifos_[source].front();
  }
  /// The FIFO bound to `delay`, binding an empty one on a miss; kHeap when
  /// every FIFO is bound elsewhere and busy.
  unsigned fifo_for(Time delay);
  /// Enqueue `e` at `source` and update the cached best_.
  void push(Event&& e, unsigned source);
  Event pop_fifo(unsigned i);
  /// Recompute best_ after its head was popped.
  void refresh_best();

  // Hand-rolled binary heap so we can move the EventFn out on pop
  // (std::priority_queue::top() is const) and sift with hole moves
  // instead of swaps.
  void push_heap(Event&& e);
  Event pop_heap();
  void sift_down_from(std::size_t i, Event e);

  std::vector<Event> heap_;
  std::array<core::Ring<Event>, kFifos> fifos_;
  /// fifo_delay_[i]: the delay fifos_[i] is bound to (meaningless while it
  /// is empty, which is when it may be rebound).
  std::array<Time, kFifos> fifo_delay_{};
  unsigned busy_ = 0;      ///< bit i set: fifos_[i] is non-empty
  unsigned best_ = kHeap;  ///< source holding the earliest event (valid when !empty())
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace flowpulse::sim
