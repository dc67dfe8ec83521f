// Differential property tests: the hierarchical timing-wheel EventQueue
// against the retained binary-heap reference (HeapEventQueue).
//
// Both queues are driven with identical operation scripts — schedules
// (including zero delays, timestamp ties, and far-future events beyond the
// wheel horizon), cancellations (from outside and from inside callbacks,
// including stale/double cancels), nested scheduling from callbacks,
// run_until boundaries, and single steps — and must produce bit-identical
// firing logs (event id, firing timestamp) and clock reads. The heap is the
// determinism oracle: equal timestamps fire in insertion order.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "heap_event_queue.h"

namespace hermes::sim {
namespace {

// The in-wheel horizon is 64^6 ns ~= 68.7 simulated seconds; anything past
// it lands on the overflow list and exercises the full-wheel rebase.
constexpr int64_t kHorizonNs = 1ll << 36;

uint64_t splitmix64(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d4b33a5acfe21dull;
  return z ^ (z >> 31);
}

// One scripted operation, precomputed so both queues replay the same list.
struct Op {
  enum Kind { kSchedule, kCancel, kRunUntil, kStep } kind;
  int64_t delay_ns = 0;   // kSchedule / kRunUntil
  uint32_t arg = 0;       // kSchedule: behavior hash; kCancel: handle slot
};

std::vector<Op> make_script(uint64_t seed, int n_ops) {
  uint64_t s = seed;
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    const uint64_t roll = splitmix64(s) % 100;
    if (roll < 55) {
      op.kind = Op::kSchedule;
      const uint64_t shape = splitmix64(s) % 10;
      if (shape < 2) {
        op.delay_ns = 0;  // same-timestamp tie with the current instant
      } else if (shape < 6) {
        op.delay_ns = static_cast<int64_t>(splitmix64(s) % 1000);  // ties
      } else if (shape < 9) {
        op.delay_ns = static_cast<int64_t>(splitmix64(s) % 5'000'000);
      } else {
        // Beyond the wheel horizon: overflow list + rebase path.
        op.delay_ns = kHorizonNs + static_cast<int64_t>(
            splitmix64(s) % kHorizonNs);
      }
      op.arg = static_cast<uint32_t>(splitmix64(s));
    } else if (roll < 70) {
      op.kind = Op::kCancel;
      op.arg = static_cast<uint32_t>(splitmix64(s));
    } else if (roll < 90) {
      op.kind = Op::kRunUntil;
      op.delay_ns = static_cast<int64_t>(splitmix64(s) % 2'000'000);
    } else {
      op.kind = Op::kStep;
    }
    ops.push_back(op);
  }
  return ops;
}

// Replays a script against one queue implementation. Callback behavior
// (nested scheduling, cancel-from-callback) is derived from the event's own
// id via splitmix64, so it is identical across implementations as long as
// the firing order is — which is exactly what the test asserts.
template <class Q>
class Driver {
 public:
  std::vector<std::pair<uint64_t, int64_t>> log;  // (event id, fire ns)

  void run(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kSchedule:
          schedule(SimTime::nanos(op.delay_ns), op.arg);
          break;
        case Op::kCancel:
          if (!handles_.empty()) {
            q_.cancel(handles_[op.arg % handles_.size()]);
          }
          break;
        case Op::kRunUntil:
          q_.run_until(q_.now() + SimTime::nanos(op.delay_ns));
          log.emplace_back(kClockMark, q_.now().ns());
          break;
        case Op::kStep:
          q_.step();
          log.emplace_back(kClockMark, q_.now().ns());
          break;
      }
    }
    q_.run_all();
    log.emplace_back(kClockMark, q_.now().ns());
  }

 private:
  static constexpr uint64_t kClockMark = ~0ull;

  void schedule(SimTime delay, uint32_t behavior) {
    const uint64_t id = next_id_++;
    handles_.push_back(q_.schedule_after(delay, [this, id, behavior] {
      log.emplace_back(id, q_.now().ns());
      uint64_t s = id * 0x9e3779b97f4a7c15ull + behavior;
      const uint64_t roll = splitmix64(s);
      if (roll % 4 == 0 && next_id_ < 4000) {
        // Nested schedule, sometimes a zero delay (fires this instant,
        // after everything already queued at it).
        schedule(SimTime::nanos(static_cast<int64_t>(splitmix64(s) % 1500)),
                 static_cast<uint32_t>(splitmix64(s)));
      }
      if (roll % 7 == 0 && !handles_.empty()) {
        // Cancel from inside a callback — may hit an unfired, already-fired,
        // or already-cancelled handle; all must behave identically.
        q_.cancel(handles_[splitmix64(s) % handles_.size()]);
      }
    }));
  }

  Q q_;
  std::vector<typename Q::Handle> handles_;
  uint64_t next_id_ = 0;
};

void run_differential(uint64_t seed, int n_ops) {
  const std::vector<Op> script = make_script(seed, n_ops);
  Driver<EventQueue> wheel;
  Driver<HeapEventQueue> heap;
  wheel.run(script);
  heap.run(script);
  ASSERT_EQ(wheel.log.size(), heap.log.size()) << "seed " << seed;
  for (size_t i = 0; i < wheel.log.size(); ++i) {
    ASSERT_EQ(wheel.log[i], heap.log[i])
        << "seed " << seed << " diverges at log entry " << i;
  }
}

TEST(EventWheelProperty, DifferentialFuzzVsHeap) {
  for (uint64_t seed = 1; seed <= 40; ++seed) run_differential(seed, 400);
}

TEST(EventWheelProperty, DifferentialFuzzLongScripts) {
  for (uint64_t seed = 100; seed < 106; ++seed) run_differential(seed, 3000);
}

// ---- Targeted corners the fuzzer covers only probabilistically ----------

TEST(EventWheelProperty, MassTieBreakOrderSurvivesCascades) {
  // A burst at one far timestamp files into an upper level, then cascades
  // down through every level before firing; insertion order must survive.
  EventQueue eq;
  std::vector<int> fired;
  const SimTime t = SimTime::nanos(123'456'789);  // crosses several levels
  for (int i = 0; i < 500; ++i) {
    eq.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  eq.run_all();
  ASSERT_EQ(fired.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(fired[i], i);
  EXPECT_EQ(eq.now(), t);
}

TEST(EventWheelProperty, FarFutureBeyondHorizonFiresInOrder) {
  EventQueue eq;
  std::vector<int> fired;
  // All beyond the 64^6 ns wheel horizon: overflow list, then rebase.
  eq.schedule_at(SimTime::nanos(3 * kHorizonNs + 5), [&] { fired.push_back(3); });
  eq.schedule_at(SimTime::nanos(2 * kHorizonNs + 7), [&] { fired.push_back(2); });
  eq.schedule_at(SimTime::nanos(2 * kHorizonNs + 7), [&] { fired.push_back(20); });
  eq.schedule_at(SimTime::nanos(5), [&] { fired.push_back(1); });
  eq.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 20, 3}));
  EXPECT_EQ(eq.now().ns(), 3 * kHorizonNs + 5);
}

TEST(EventWheelProperty, OverflowRebaseAllowsNearSchedulingAfter) {
  EventQueue eq;
  std::vector<int> fired;
  eq.schedule_at(SimTime::nanos(2 * kHorizonNs), [&] {
    fired.push_back(1);
    // After the rebase the wheel's windows sit at ~2*horizon; near-term
    // scheduling relative to the new now() must still file correctly.
    eq.schedule_after(SimTime::nanos(3), [&] { fired.push_back(2); });
    eq.schedule_after(SimTime::nanos(0), [&] { fired.push_back(10); });
  });
  eq.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 10, 2}));
}

TEST(EventWheelProperty, RunUntilNeverAdvancesPastBoundary) {
  // An event one tick past the boundary must not fire, and the wheel must
  // not re-window past the boundary while probing (a later near-term
  // schedule would otherwise hit a base ahead of now()).
  EventQueue eq;
  bool fired = false;
  eq.schedule_at(SimTime::nanos(1001), [&] { fired = true; });
  eq.run_until(SimTime::nanos(1000));
  EXPECT_FALSE(fired);
  EXPECT_EQ(eq.now().ns(), 1000);
  bool near = false;
  eq.schedule_after(SimTime::nanos(0), [&] { near = true; });
  eq.run_until(SimTime::nanos(1000));
  EXPECT_TRUE(near);
  eq.run_all();
  EXPECT_TRUE(fired);
}

TEST(EventWheelProperty, CancelBeyondHorizonAndStaleHandles) {
  EventQueue eq;
  std::vector<int> fired;
  auto h_far = eq.schedule_at(SimTime::nanos(2 * kHorizonNs),
                              [&] { fired.push_back(99); });
  auto h_near = eq.schedule_at(SimTime::nanos(10), [&] { fired.push_back(1); });
  eq.cancel(h_far);
  eq.run_all();
  // Stale cancels (fired handle, double cancel, default handle) are no-ops
  // even after the record slot is recycled by a new event.
  eq.cancel(h_near);
  eq.cancel(h_far);
  eq.cancel(EventQueue::Handle{});
  eq.schedule_after(SimTime::nanos(5), [&] { fired.push_back(2); });
  eq.cancel(h_near);  // must not kill the recycled slot's new occupant
  eq.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventWheelProperty, RecordSlabRecyclesUnderChurn) {
  // Steady-state: one outstanding event at a time, many firings. The record
  // slab must recycle a bounded footprint rather than growing per event.
  EventQueue eq;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10000) eq.schedule_after(SimTime::nanos(7), chain);
  };
  eq.schedule_after(SimTime::nanos(7), chain);
  eq.run_all();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(eq.now().ns(), 7ll * 10000);
  EXPECT_TRUE(eq.empty());
  EXPECT_FALSE(eq.step());
}

TEST(EventWheelProperty, PendingTracksLiveEvents) {
  EventQueue eq;
  auto a = eq.schedule_at(SimTime::nanos(5), [] {});
  eq.schedule_at(SimTime::nanos(6), [] {});
  EXPECT_EQ(eq.pending(), 2u);
  eq.cancel(a);
  EXPECT_EQ(eq.pending(), 1u);
  eq.cancel(a);  // double cancel does not double-count
  EXPECT_EQ(eq.pending(), 1u);
  eq.run_all();
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_TRUE(eq.empty());
}

}  // namespace
}  // namespace hermes::sim
