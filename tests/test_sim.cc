// Unit tests for the discrete-event engine: time arithmetic, event
// ordering, determinism of the RNG streams.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(Time::nanoseconds(1).ps(), 1'000);
  EXPECT_EQ(Time::microseconds(1).ps(), 1'000'000);
  EXPECT_EQ(Time::milliseconds(1).ps(), 1'000'000'000);
  EXPECT_EQ(Time::seconds(1).ps(), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(Time::microseconds(3).us(), 3.0);
  EXPECT_DOUBLE_EQ(Time::nanoseconds(1500).us(), 1.5);
}

TEST(Time, Arithmetic) {
  const Time a = Time::nanoseconds(100);
  const Time b = Time::nanoseconds(40);
  EXPECT_EQ((a + b).ps(), 140'000);
  EXPECT_EQ((a - b).ps(), 60'000);
  EXPECT_EQ((a * 3).ps(), 300'000);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
  Time c = a;
  c += b;
  EXPECT_EQ(c, Time::nanoseconds(140));
}

TEST(Time, SerializationTime) {
  // The raw-scalar math lives behind sim::detail; product code goes
  // through core::serialization_time(Bytes, GbitsPerSec).
  // 4096 bytes at 400 Gbps = 4096*8/400e9 s = 81.92 ns.
  EXPECT_EQ(detail::serialization_time(4096, 400.0).ps(), 81'920);
  // 1 byte at 400 Gbps = 20 ps: stays exact in picoseconds.
  EXPECT_EQ(detail::serialization_time(1, 400.0).ps(), 20);
  EXPECT_EQ(detail::serialization_time(1500, 100.0).ps(), 120'000);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::nanoseconds(30), Time::zero(), 0, [&] { order.push_back(3); });
  q.schedule(Time::nanoseconds(10), Time::zero(), 0, [&] { order.push_back(1); });
  q.schedule(Time::nanoseconds(20), Time::zero(), 0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(InlineFn, SimultaneousEventsStayFifoUnderInterleavedPops) {
  // The InlineFn rework replaced swap-based sifting with hole moves; FIFO
  // order among same-time events must survive pops interleaved with
  // schedules (the hot-path pattern: executing one event schedules more).
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });
  }
  for (int i = 10; i < 20; ++i) {
    q.pop().fn();  // pop one of the earlier batch...
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });  // ...schedule a later one
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(InlineFn, MoveTransfersCallableAndEmptiesSource) {
  int fired = 0;
  InlineFn a{[&fired] { ++fired; }};
  EXPECT_TRUE(static_cast<bool>(a));
  InlineFn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(fired, 2);
}

TEST(InlineFn, NonTrivialCapturesDestructAndMoveCorrectly) {
  // A shared_ptr capture exercises the managed (non-memcpy) move/destroy
  // path: the payload must survive heap sifting and be released exactly
  // once when the event has run and the queue drains.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  int seen = 0;
  {
    EventQueue q;
    q.schedule(Time::nanoseconds(2), Time::zero(), 0, [token, &seen] { seen = *token; });
    // Force sifting around the shared_ptr capture.
    for (int i = 0; i < 8; ++i) q.schedule(Time::nanoseconds(1), Time::zero(), 0, [] {});
    token.reset();
    EXPECT_FALSE(alive.expired());
    while (!q.empty()) q.pop().fn();
  }
  EXPECT_EQ(seen, 7);
  EXPECT_TRUE(alive.expired());
}

TEST(EventQueue, ManyDistinctDelaysPopInTimeOrder) {
  // 100 distinct delays: eight take the FIFOs, the rest fall back to the heap.
  EventQueue q;
  EXPECT_TRUE(q.empty());
  int fired = 0;
  for (int i = 0; i < 100; ++i) q.schedule(Time::nanoseconds(100 - i), Time::zero(), 0, [&fired] { ++fired; });
  Time last = Time::zero();
  while (!q.empty()) {
    EventQueue::Event ev = q.pop();
    EXPECT_GE(ev.at, last);
    last = ev.at;
    ev.fn();
  }
  EXPECT_EQ(fired, 100);
}

// ---------------------------------------------------------------------------
// EventQueue vs a reference ordered by the full (at, sched, prov) key
// ---------------------------------------------------------------------------

/// Random interleavings of schedule / schedule_imported / pop, replayed
/// against a std::set ordered by the queue's documented key. The test
/// plays a lane: its clock is the last popped time, local events carry
/// src 0, and imports come from srcs 1..3 with their own counters.
struct QueueMix {
  std::vector<Time> delays;          ///< constant delays; empty = random delays
  std::int64_t random_delay_ps = 0;  ///< random delays are uniform in [0, this]
  double import_p = 0.0;             ///< share of schedules that are imports
  double backwards_p = 0.0;          ///< share of local schedules with sched behind the clock
};

class QueueDifferential {
 public:
  QueueDifferential(QueueMix mix, std::uint64_t seed) : mix_{std::move(mix)}, rng_{seed} {}

  ::testing::AssertionResult run(int ops) {
    for (int i = 0; i < ops && ok_; ++i) {
      // Alternate 1000-op phases that grow and drain the queue, so FIFO
      // rings grow, wrap and empty (and get rebound) many times.
      const double push_p = (i / 1000) % 2 == 0 ? 0.7 : 0.3;
      if (rng_.next_double() < push_p || ref_.empty()) {
        if (rng_.next_double() < mix_.import_p) {
          import_one();
        } else {
          schedule_one();
        }
      } else {
        pop_one();
      }
    }
    while (!ref_.empty() && ok_) pop_one();
    if (!ok_) return ::testing::AssertionFailure() << failure_;
    return ::testing::AssertionSuccess() << pops_ << " pops";
  }

 private:
  struct Key {
    Time at;
    Time sched;
    std::uint64_t prov;
    int id;
    bool operator<(const Key& o) const {
      return std::tie(at, sched, prov) < std::tie(o.at, o.sched, o.prov);
    }
  };

  void schedule_one() {
    const std::uint64_t span = static_cast<std::uint64_t>(mix_.random_delay_ps) + 1;
    const Time delay = mix_.delays.empty()
                           ? Time::picoseconds(static_cast<std::int64_t>(rng_.next_below(span)))
                           : mix_.delays[rng_.next_below(mix_.delays.size())];
    Time sched = now_;
    if (rng_.next_double() < mix_.backwards_p) {
      sched = now_ - Time::picoseconds(static_cast<std::int64_t>(rng_.next_below(50'000)) + 1);
    }
    const int id = next_id_++;
    ref_.insert(Key{sched + delay, sched, EventQueue::pack_provenance(0, scheduled_++), id});
    q_.schedule(sched + delay, sched, 0, [this, id] { fired_ = id; });
    check("schedule");
  }

  void import_one() {
    // Earlier provenance than anything the lane schedules now, at a fire
    // time that may tie with local events.
    const std::uint32_t src = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    const Time at = now_ + Time::picoseconds(static_cast<std::int64_t>(rng_.next_below(3)) * 1'280);
    const Time sched = Time::picoseconds(
        static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(now_.ps()) + 1)));
    const std::uint64_t seq = import_seq_[src]++;
    const int id = next_id_++;
    ++scheduled_;
    ref_.insert(Key{at, sched, EventQueue::pack_provenance(src, seq), id});
    q_.schedule_imported(at, sched, src, seq, [this, id] { fired_ = id; });
    check("import");
  }

  void pop_one() {
    const Key want = *ref_.begin();
    ref_.erase(ref_.begin());
    EventQueue::Event ev = q_.pop();
    ev.fn();
    ++pops_;
    if (ev.at != want.at || ev.sched != want.sched || ev.prov != want.prov || fired_ != want.id) {
      fail("pop " + std::to_string(pops_) + ": got (" + std::to_string(ev.at.ps()) + ", " +
           std::to_string(ev.sched.ps()) + ", " + std::to_string(ev.prov) + ") id " +
           std::to_string(fired_) + ", want (" + std::to_string(want.at.ps()) + ", " +
           std::to_string(want.sched.ps()) + ", " + std::to_string(want.prov) + ") id " +
           std::to_string(want.id));
      return;
    }
    if (ev.at > now_) now_ = ev.at;  // a lane's clock never runs backwards
    check("pop");
  }

  void check(const char* op) {
    if (!ok_) return;
    if (q_.size() != ref_.size() || q_.empty() != ref_.empty() ||
        q_.scheduled_total() != scheduled_) {
      fail(std::string{op} + ": size " + std::to_string(q_.size()) + " vs " +
           std::to_string(ref_.size()));
    } else if (!ref_.empty() && q_.next_time() != ref_.begin()->at) {
      fail(std::string{op} + ": next_time " + std::to_string(q_.next_time().ps()) + " vs " +
           std::to_string(ref_.begin()->at.ps()));
    }
  }

  void fail(std::string what) {
    ok_ = false;
    failure_ = std::move(what);
  }

  QueueMix mix_;
  Rng rng_;
  EventQueue q_;
  std::set<Key> ref_;
  Time now_ = Time::nanoseconds(100);
  std::uint64_t scheduled_ = 0;
  std::array<std::uint64_t, 4> import_seq_{};
  int next_id_ = 0;
  int fired_ = -1;
  std::uint64_t pops_ = 0;
  bool ok_ = true;
  std::string failure_;
};

std::vector<Time> hop_delays(int n) {
  // clos1k's four hot delays first, then distinct extras.
  std::vector<Time> d{Time::picoseconds(1'280), Time::picoseconds(21'760),
                      Time::nanoseconds(200), Time::microseconds(5)};
  for (int i = 4; i < n; ++i) d.push_back(Time::picoseconds(83'200 + 1'000 * i));
  return d;
}

TEST(EventQueueDifferential, MoreConstantDelaysThanFifos) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_TRUE(QueueDifferential({hop_delays(13)}, seed).run(20'000)) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, RandomDelaysAndSameInstantTies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Delays in [0, 40] ps collide constantly, and many events share a
    // fire time and a schedule instant, so prov decides.
    EXPECT_TRUE(QueueDifferential({{}, 40}, seed).run(20'000)) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, ImportsCarryEarlierProvenance) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_TRUE(QueueDifferential({hop_delays(6), 0, 0.3}, seed).run(20'000)) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, BackwardsScheduleTakesTailGuard) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_TRUE(QueueDifferential({hop_delays(4), 0, 0.1, 0.2}, seed).run(20'000))
        << "seed " << seed;
  }
  // Deterministic case: same delay, second sched behind the first. A FIFO
  // append would pop 300 ns before 200 ns.
  EventQueue q;
  q.schedule(Time::nanoseconds(300), Time::nanoseconds(100), 0, [] {});
  q.schedule(Time::nanoseconds(200), Time::zero(), 0, [] {});
  EXPECT_EQ(q.next_time(), Time::nanoseconds(200));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(200));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(300));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SharedCaptureReleasedOnceAcrossGrowthAndRebinding) {
  int deletions = 0;
  std::shared_ptr<int> token{new int(7), [&deletions](int* p) {
                               ++deletions;
                               delete p;
                             }};
  int runs = 0;
  {
    EventQueue q;
    Time now = Time::zero();
    const auto add = [&](Time delay) {
      q.schedule(now + delay, now, 0, [token, &runs] { runs += *token; });
    };
    const auto pop_run = [&] {
      EventQueue::Event ev = q.pop();
      now = ev.at;
      ev.fn();
    };
    // One delay: wrap the FIFO's ring, then grow it while wrapped.
    for (int i = 0; i < 6; ++i) add(Time::nanoseconds(10));
    for (int i = 0; i < 4; ++i) pop_run();
    for (int i = 0; i < 12; ++i) add(Time::nanoseconds(10));
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(q.size()));
    // Bind every FIFO, then overflow into the heap.
    for (int d = 11; d <= 20; ++d) add(Time::nanoseconds(d));
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(q.size()));
    while (!q.empty()) pop_run();
    EXPECT_EQ(token.use_count(), 1);
    // All FIFOs idle: new delays rebind them.
    for (int d = 31; d <= 40; ++d) add(Time::nanoseconds(d));
    for (int i = 0; i < 5; ++i) pop_run();
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(q.size()));
  }  // the queue dies with events still pending in FIFOs and the heap
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(runs, 7 * (4 + 24 + 5));
  EXPECT_EQ(deletions, 0);
  token.reset();
  EXPECT_EQ(deletions, 1);
}

TEST(EventQueue, PopReturnsEarliest) {
  EventQueue q;
  q.schedule(Time::nanoseconds(50), Time::zero(), 0, [] {});
  q.schedule(Time::nanoseconds(5), Time::zero(), 0, [] {});
  EXPECT_EQ(q.next_time(), Time::nanoseconds(5));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(5));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(50));
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_in(Time::microseconds(2), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::microseconds(2));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(10), [&] {
    ++fired;
    sim.schedule_in(Time::nanoseconds(10), [&] {
      ++fired;
      sim.schedule_in(Time::nanoseconds(10), [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), Time::nanoseconds(30));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(10), [&] { ++fired; });
  sim.schedule_in(Time::nanoseconds(100), [&] { ++fired; });
  sim.run_until(Time::nanoseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::nanoseconds(50));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(Time::nanoseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with the pending event
  EXPECT_EQ(fired, 2);
}

// Regression: run_until used to clear stopped_ unconditionally on entry,
// silently discarding a stop requested before the run started. A pre-run
// stop now consumes the request and returns with nothing executed and the
// clock untouched.
TEST(Simulator, PreRunStopHonored) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(5), [&] { ++fired; });
  sim.stop();
  EXPECT_TRUE(sim.stopped());
  sim.run_until(Time::nanoseconds(100));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
  // The stop was consumed: the next run proceeds normally.
  EXPECT_FALSE(sim.stopped());
  sim.run_until(Time::nanoseconds(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::nanoseconds(100));
}

// Pins stop semantics across run segments: each stop() halts exactly one
// run call (whether requested mid-run or between runs), and every segment
// resumes from the pending queue.
TEST(Simulator, StopAcrossRunSegments) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(Time::nanoseconds(1), [&] {
    order.push_back(1);
    sim.stop();  // mid-run stop: halts segment 1
  });
  sim.schedule_in(Time::nanoseconds(2), [&] { order.push_back(2); });
  sim.schedule_in(Time::nanoseconds(3), [&] { order.push_back(3); });
  sim.run();  // segment 1: executes event 1, halts
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.stop();  // pre-run stop: consumes segment 2 before it executes
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.run();  // segment 3: drains the rest
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::nanoseconds(3));
}

// Regression: fast_forward(to <= now) used to bump fast_forwards_ (and
// emit a kFidelity trace), inflating the hybrid engine's fidelity
// accounting with no-op jumps. A no-op fast-forward must not count.
TEST(Simulator, NoopFastForwardNotCounted) {
  Simulator sim;
  sim.schedule_in(Time::nanoseconds(10), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), Time::nanoseconds(10));
  EXPECT_EQ(sim.fast_forwards(), 0u);
  sim.fast_forward(Time::nanoseconds(10));  // to == now: no-op
  sim.fast_forward(Time::nanoseconds(5));   // to < now: no-op
  EXPECT_EQ(sim.fast_forwards(), 0u);
  EXPECT_EQ(sim.now(), Time::nanoseconds(10));
  sim.fast_forward(Time::nanoseconds(25));  // real jump: counted
  EXPECT_EQ(sim.fast_forwards(), 1u);
  EXPECT_EQ(sim.now(), Time::nanoseconds(25));
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng{7};
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.next_below(8)];
  for (const int c : counts) {
    EXPECT_GT(c, 800);  // roughly uniform: expect 1000 each
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{9};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng{11};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.015)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.015, 0.002);
}

TEST(Rng, BernoulliEdges) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{21};
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng parent_copy{21};
  (void)parent_copy.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace flowpulse::sim
