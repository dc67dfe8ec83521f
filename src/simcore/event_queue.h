// Discrete-event simulation core: a monotone virtual clock plus a calendar
// of timestamped callbacks.
//
// All of netsim/ and sim/ is driven by one EventQueue. Determinism rule:
// events at equal timestamps fire in insertion order (stable FIFO
// tie-break), so runs are exactly reproducible for a given seed.
//
// EventQueue is a hierarchical timing wheel over an indexed event
// calendar. Event records live in a free-listed slab (indexed by
// generation-tagged handles, so cancel() is O(1) with no per-event heap
// node), and the wheel gives O(1) schedule plus O(levels) amortized fire —
// no per-event priority-queue churn, which is what the million-connection
// fleet simulation needs. Its oracle, the original binary-heap queue
// HeapEventQueue, lives in tests/heap_event_queue.h; the differential
// tests in tests/event_wheel_test.cc require the two to fire
// bit-identically (same order, same clock).
//
// Wheel geometry: kWheelLevels levels of 64 slots at 1 ns tick granularity.
// Level l slots span 64^l ns, so the in-wheel horizon is 64^kWheelLevels ns
// (~68.7 simulated seconds for 6 levels) past the level-(top) window start;
// events beyond it sit in an overflow list that is redistributed when the
// wheel advances that far (rare: once per 64^levels ns). Because level-0
// slots are a single nanosecond wide, every record in a level-0 slot shares
// one timestamp, and slot chains are FIFO by construction (cascades
// preserve relative order and fresh schedules append), so draining a slot
// head-to-tail reproduces the heap's (time, insertion-seq) order exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Opaque handle for cancellation. Cancelling an already-fired or already-
  // cancelled event is a harmless no-op: the handle carries the record's
  // generation tag, so a reused record slot never aliases an old handle.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class EventQueue;
    Handle(uint32_t idx, uint32_t gen)
        : bits_((static_cast<uint64_t>(gen) << 32) | (idx + 1ull)) {}
    uint32_t idx() const { return static_cast<uint32_t>(bits_ & 0xffffffffu) - 1; }
    uint32_t gen() const { return static_cast<uint32_t>(bits_ >> 32); }
    uint64_t bits_ = 0;  // 0 = null handle
  };

  SimTime now() const { return now_; }

  // Schedule `cb` to run at absolute time `at` (must be >= now()).
  Handle schedule_at(SimTime at, Callback cb) {
    HERMES_CHECK_MSG(at >= now_, "cannot schedule in the past");
    const uint32_t idx = alloc_record(at, std::move(cb));
    place(idx);
    ++live_;
    return Handle{idx, records_[idx].gen};
  }

  Handle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  void cancel(Handle h) {
    if (h.bits_ == 0) return;
    const uint32_t idx = h.idx();
    if (idx >= records_.size()) return;
    Record& r = records_[idx];
    if (r.gen != h.gen() || !r.live) return;
    r.live = false;
    r.cb = nullptr;  // release captured state eagerly
    --live_;
  }

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  // Run the next event; returns false if the queue is empty.
  bool step() {
    if (live_ == 0) return false;
    while (true) {
      const uint32_t idx = pop_next(kNoLimit);
      HERMES_DCHECK(idx != kNil);  // live_ > 0 guarantees one exists
      if (fire(idx)) return true;
    }
  }

  // Run until the queue drains or the clock passes `until`.
  // Events scheduled exactly at `until` are executed.
  void run_until(SimTime until) {
    const uint64_t limit = tick_of(until);
    while (live_ != 0) {
      const uint32_t idx = pop_next(limit);
      if (idx == kNil) break;
      fire(idx);
    }
    if (now_ < until) now_ = until;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr uint32_t kSlots = 64;
  static constexpr int kWheelLevels = 6;
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint64_t kNoLimit = ~0ull;

  // One entry in the indexed event calendar. Records are slab-stored and
  // free-listed; `gen` tags each reuse so stale handles can never cancel a
  // successor event. `next` chains records within a wheel slot (or the
  // overflow list) in FIFO order.
  struct Record {
    SimTime at{};
    Callback cb;
    uint32_t gen = 0;
    uint32_t next = kNil;
    bool live = false;      // false: cancelled (still chained) or free
    bool in_free = false;
  };

  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  static uint64_t tick_of(SimTime t) { return static_cast<uint64_t>(t.ns()); }

  // Slot width of level l in ticks: 64^l.
  static constexpr uint64_t span(int level) {
    return 1ull << (kLevelBits * level);
  }
  // Ticks covered by level l's whole window: 64^(l+1).
  static constexpr uint64_t window(int level) {
    return 1ull << (kLevelBits * (level + 1));
  }

  uint32_t alloc_record(SimTime at, Callback cb) {
    uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      records_[idx].in_free = false;
    } else {
      idx = static_cast<uint32_t>(records_.size());
      records_.emplace_back();
    }
    Record& r = records_[idx];
    r.at = at;
    r.cb = std::move(cb);
    r.next = kNil;
    r.live = true;
    return idx;
  }

  void release_record(uint32_t idx) {
    Record& r = records_[idx];
    HERMES_DCHECK(!r.in_free);
    r.cb = nullptr;
    r.live = false;
    r.in_free = true;
    ++r.gen;  // stale handles die here
    free_.push_back(idx);
  }

  void append(Slot& slot, uint32_t idx) {
    records_[idx].next = kNil;
    if (slot.head == kNil) {
      slot.head = slot.tail = idx;
    } else {
      records_[slot.tail].next = idx;
      slot.tail = idx;
    }
  }

  // File a record into the lowest level whose window contains its tick, or
  // the overflow list. Windows only move forward and base_[l] <= any
  // running clock value, so t >= now() always lands somewhere.
  void place(uint32_t idx) {
    const uint64_t t = tick_of(records_[idx].at);
    for (int l = 0; l < kWheelLevels; ++l) {
      if (t < base_[l] + window(l)) {
        HERMES_DCHECK(t >= base_[l]);
        const uint32_t s = static_cast<uint32_t>((t - base_[l]) / span(l));
        append(wheel_[l][s], idx);
        occupancy_[l] |= 1ull << s;
        return;
      }
    }
    append(overflow_, idx);
    ++overflow_count_;
  }

  // Redistribute one level-l slot into level l-1, re-windowing l-1 onto the
  // slot's range. Chain order is preserved, so per-slot FIFO (= insertion
  // order) survives every cascade.
  void cascade(int l, uint32_t s) {
    base_[l - 1] = base_[l] + static_cast<uint64_t>(s) * span(l);
    uint32_t idx = wheel_[l][s].head;
    wheel_[l][s] = Slot{};
    occupancy_[l] &= ~(1ull << s);
    while (idx != kNil) {
      const uint32_t next = records_[idx].next;
      place(idx);
      idx = next;
    }
  }

  // Rebase the whole wheel onto the earliest overflow tick `min_t` and
  // refile the overflow list (order-preserving). Only called when every
  // level is empty, so no in-wheel record can conflict with the new bases.
  void rebase_from_overflow(uint64_t min_t) {
    HERMES_DCHECK(overflow_.head != kNil);
    for (int l = 0; l < kWheelLevels; ++l) {
      // Align base_[l] down to a span(l) boundary containing min_t; bases
      // stay monotonically non-increasing with level (nesting invariant).
      base_[l] = (min_t / span(l)) * span(l);
    }
    uint32_t idx = overflow_.head;
    overflow_ = Slot{};
    overflow_count_ = 0;
    while (idx != kNil) {
      const uint32_t next = records_[idx].next;
      place(idx);
      idx = next;
    }
  }

  // Pop the earliest record with tick <= limit, cascading upper levels down
  // as needed; kNil if the earliest event is beyond `limit`. Levels are
  // nested (every level-l record is at or beyond the end of level l-1's
  // window), so the earliest record always sits at the lowest occupied
  // level. Re-windowing only happens toward slots at or below `limit`, so
  // the wheel never advances past a run_until() boundary.
  uint32_t pop_next(uint64_t limit) {
    while (true) {
      int lowest = -1;
      for (int l = 0; l < kWheelLevels; ++l) {
        if (occupancy_[l] != 0) {
          lowest = l;
          break;
        }
      }
      if (lowest < 0) {
        if (overflow_.head == kNil) return kNil;
        // Everything in-wheel drained; bring the far future into range.
        uint64_t min_t = ~0ull;
        for (uint32_t i = overflow_.head; i != kNil; i = records_[i].next) {
          min_t = std::min(min_t, tick_of(records_[i].at));
        }
        if (min_t > limit) return kNil;
        rebase_from_overflow(min_t);
        continue;
      }
      const auto s = static_cast<uint32_t>(
          __builtin_ctzll(occupancy_[lowest]));
      const uint64_t slot_start =
          base_[lowest] + static_cast<uint64_t>(s) * span(lowest);
      if (slot_start > limit) return kNil;
      if (lowest == 0) {
        Slot& slot = wheel_[0][s];
        const uint32_t idx = slot.head;
        slot.head = records_[idx].next;
        if (slot.head == kNil) {
          slot.tail = kNil;
          occupancy_[0] &= ~(1ull << s);
        }
        return idx;
      }
      cascade(lowest, s);
    }
  }

  // Fire (or reap) one popped record. Returns true if a live callback ran.
  bool fire(uint32_t idx) {
    Record& r = records_[idx];
    if (!r.live) {
      release_record(idx);  // cancelled: reap lazily
      return false;
    }
    now_ = r.at;
    Callback cb = std::move(r.cb);
    --live_;
    release_record(idx);
    cb();
    return true;
  }

  SimTime now_ = SimTime::zero();
  size_t live_ = 0;
  std::vector<Record> records_;
  std::vector<uint32_t> free_;
  Slot wheel_[kWheelLevels][kSlots]{};
  uint64_t occupancy_[kWheelLevels]{};
  uint64_t base_[kWheelLevels]{};
  Slot overflow_{};
  size_t overflow_count_ = 0;
};

// A self-rescheduling event body. Wraps `f(self)` where `self` may be passed
// back to schedule_at/schedule_after to re-arm the same body; every queue
// entry owns its own copy of the captured state. Recurring events must use
// this rather than the shared_ptr<function> self-capture idiom: a closure
// holding a shared_ptr to itself is a refcount cycle that never frees once
// the queue stops before the closure's final firing.
template <class F>
class Rearming {
 public:
  explicit Rearming(F f) : f_(std::move(f)) {}
  void operator()() { f_(*this); }

 private:
  F f_;
};

template <class F>
Rearming(F) -> Rearming<F>;

}  // namespace hermes::sim
