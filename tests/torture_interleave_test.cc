// Torture: seeded interleaving exploration of the lock-free closed loop.
//
// N simulated workers are decomposed into atomic steps — heartbeat write,
// pending/conn updates, cascade-filter run, bitmap publish — and executed
// under seeded schedules (random-walk and PCT-style bounded-preemption).
// A shadow model is advanced in lockstep; after EVERY step the explorer
// checks:
//   * no torn or cross-slot writes: each WST slot equals the shadow exactly;
//   * connection accounting is conserved and never negative;
//   * the kernel-visible bitmap always equals the LAST COMPLETED publish
//     (last-write-wins, nothing in between);
//   * a published bitmap never names an out-of-range worker and never names
//     a worker that was hung at its schedule()'s snapshot time.
// Everything derives from one seed: the same seed must reproduce the same
// schedule, trace hash, and failure report bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/hermes.h"
#include "testing/interleave.h"

namespace hermes {
namespace {

using core::HermesRuntime;
using testing::ExploreOptions;
using testing::ExploreResult;
using testing::InterleavingExplorer;
using testing::SchedulePolicy;

constexpr int64_t kTickNs = 10'000'000;  // 10 ms per loop entry

// System under test plus its shadow model. Steps mutate both in the same
// atomic step; invariants compare them.
struct Harness {
  Harness(uint32_t workers, uint32_t wpg) {
    HermesRuntime::Options opts;
    opts.num_workers = workers;
    opts.config.workers_per_group = wpg;
    rt.emplace(opts);
    for (WorkerId w = 0; w < workers; ++w) hooks.push_back(rt->hooks_for(w));
    ts.assign(workers, 0);
    pending.assign(workers, 0);
    conns.assign(workers, 0);
    last_pub.assign(rt->num_groups(), 0);
    saved.assign(workers, Saved{});
  }

  struct Saved {
    uint32_t group = 0;
    uint64_t bitmap = 0;
    bool valid = false;
  };

  std::optional<HermesRuntime> rt;
  std::vector<core::EventLoopHooks> hooks;
  int64_t now_ns = 0;  // global logical clock, advanced by "enter" steps
  // Shadow of the WST.
  std::vector<int64_t> ts, pending, conns;
  // Shadow of M_sel: last bitmap whose publish step completed, per group.
  std::vector<uint64_t> last_pub;
  std::vector<Saved> saved;
  // First error detected inside a step (checked by the step-errors
  // invariant so it surfaces with the full trace context).
  std::string step_err;

  void note(std::string e) {
    if (step_err.empty()) step_err = std::move(e);
  }
};

// Append worker `w`'s per-iteration step sequence to its thread script.
void add_worker_iteration(InterleavingExplorer::ThreadScript& t, Harness& h,
                          WorkerId w, uint32_t i) {
  t.step("enter", [&h, w] {
    h.now_ns += kTickNs;
    const SimTime now = SimTime::nanos(h.now_ns);
    h.hooks[w].on_loop_enter(now);
    h.ts[w] = now.ns();
  });
  const int64_t events = 1 + static_cast<int64_t>((w + i) % 3);
  t.step("events", [&h, w, events] {
    h.hooks[w].on_events_returned(events);
    h.pending[w] += events;
  });
  t.step("conn", [&h, w, i] {
    if ((w + i) % 4 == 0 && h.conns[w] > 0) {
      h.hooks[w].on_conn_close();
      --h.conns[w];
    } else {
      h.hooks[w].on_conn_open();
      ++h.conns[w];
    }
  });
  t.step("drain", [&h, w, events] {
    for (int64_t k = 0; k < events; ++k) h.hooks[w].on_event_processed();
    h.pending[w] -= events;
  });
  t.step("sched", [&h, w] {
    // First half of schedule_and_sync: run the cascade over this worker's
    // group slice of the WST. Interleavings between this snapshot and the
    // publish below are exactly what the explorer shakes.
    const uint32_t wpg = h.rt->workers_per_group();
    const uint32_t group = w / wpg;
    const WorkerId base = group * wpg;
    const uint32_t limit = std::min(wpg, h.rt->num_workers() - base);
    const SimTime now = SimTime::nanos(h.now_ns);
    const auto res = h.rt->scheduler().schedule(h.rt->wst(), now, base, limit);

    if (res.selected != static_cast<uint32_t>(std::popcount(res.bitmap))) {
      h.note("selected != popcount(bitmap)");
    }
    if (limit < 64 && (res.bitmap >> limit) != 0) {
      std::ostringstream os;
      os << "bitmap 0x" << std::hex << res.bitmap << " has bits >= limit "
         << std::dec << limit;
      h.note(os.str());
    }
    const int64_t hang = h.rt->config().hang_threshold.ns();
    for (uint32_t b = 0; b < limit; ++b) {
      if (((res.bitmap >> b) & 1u) != 0 &&
          h.now_ns - h.ts[base + b] > hang) {
        h.note("bitmap selects hung worker " + std::to_string(base + b));
      }
    }
    h.saved[w] = {group, res.bitmap, true};
  });
  t.step("publish", [&h, w] {
    // Second half: the atomic 8-byte last-write-wins publish.
    if (!h.saved[w].valid) {
      h.note("publish before sched");
      return;
    }
    h.rt->sel_map().store_u64(h.saved[w].group, h.saved[w].bitmap);
    h.last_pub[h.saved[w].group] = h.saved[w].bitmap;
  });
}

void register_invariants(InterleavingExplorer& ex, Harness& h) {
  ex.invariant("wst-matches-shadow", [&h]() -> std::string {
    for (WorkerId w = 0; w < h.rt->num_workers(); ++w) {
      const auto s = h.rt->wst().read(w);
      if (s.loop_enter_ns != h.ts[w] || s.pending_events != h.pending[w] ||
          s.connections != h.conns[w]) {
        std::ostringstream os;
        os << "worker " << w << ": wst={ts=" << s.loop_enter_ns
           << " pend=" << s.pending_events << " conn=" << s.connections
           << "} shadow={ts=" << h.ts[w] << " pend=" << h.pending[w]
           << " conn=" << h.conns[w] << "}";
        return os.str();
      }
    }
    return "";
  });
  ex.invariant("conn-conserved", [&h]() -> std::string {
    int64_t wst_sum = 0, shadow_sum = 0;
    for (WorkerId w = 0; w < h.rt->num_workers(); ++w) {
      const int64_t c = h.rt->wst().connections(w);
      if (c < 0) return "worker " + std::to_string(w) + " conns < 0";
      wst_sum += c;
      shadow_sum += h.conns[w];
    }
    if (wst_sum != shadow_sum) {
      return "sum(wst)=" + std::to_string(wst_sum) +
             " != sum(shadow)=" + std::to_string(shadow_sum);
    }
    return "";
  });
  ex.invariant("published-is-last-publish", [&h]() -> std::string {
    for (uint32_t g = 0; g < h.rt->num_groups(); ++g) {
      const uint64_t kernel = h.rt->kernel_bitmap(g);
      if (kernel != h.last_pub[g]) {
        std::ostringstream os;
        os << "group " << g << ": kernel=0x" << std::hex << kernel
           << " last-publish=0x" << h.last_pub[g];
        return os.str();
      }
    }
    return "";
  });
  ex.invariant("step-errors", [&h] { return h.step_err; });
}

struct RunSpec {
  uint32_t workers = 5;
  uint32_t wpg = 64;
  uint32_t iters = 6;
};

ExploreResult run_one(const RunSpec& spec, ExploreOptions opts) {
  Harness h(spec.workers, spec.wpg);
  InterleavingExplorer ex(opts);
  for (WorkerId w = 0; w < spec.workers; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    ex.thread(name)
        .repeat(spec.iters,
                [&h, w](InterleavingExplorer::ThreadScript& t, uint32_t i) {
                  add_worker_iteration(t, h, w, i);
                });
  }
  register_invariants(ex, h);
  return ex.run();
}

void run_many_seeds(const RunSpec& spec, SchedulePolicy policy,
                    uint32_t budget, uint64_t first_seed, uint64_t n_seeds) {
  for (uint64_t s = first_seed; s < first_seed + n_seeds; ++s) {
    ExploreOptions opts;
    opts.seed = s;
    opts.policy = policy;
    opts.preemption_budget = budget;
    const ExploreResult res = run_one(spec, opts);
    ASSERT_TRUE(res.ok) << res.report();
    // Every declared step ran exactly once.
    ASSERT_EQ(res.steps_executed,
              static_cast<size_t>(spec.workers) * spec.iters * 6)
        << res.report();
  }
}

TEST(TortureInterleave, RandomWalkSingleGroup) {
  run_many_seeds({.workers = 5, .wpg = 64, .iters = 6},
                 SchedulePolicy::RandomWalk, 0, /*first_seed=*/1, 120);
}

TEST(TortureInterleave, RandomWalkTwoGroups) {
  run_many_seeds({.workers = 6, .wpg = 3, .iters = 6},
                 SchedulePolicy::RandomWalk, 0, /*first_seed=*/1000, 80);
}

TEST(TortureInterleave, RandomWalkNonDivisibleGroups) {
  // 5 workers, 3 per group: groups of 3 and 2 — the scheduler's `limit`
  // differs per group and the last slice is short.
  run_many_seeds({.workers = 5, .wpg = 3, .iters = 6},
                 SchedulePolicy::RandomWalk, 0, /*first_seed=*/2000, 80);
}

TEST(TortureInterleave, BoundedPreemptionBudgetSweep) {
  for (const uint32_t budget : {0u, 1u, 3u, 7u}) {
    run_many_seeds({.workers = 5, .wpg = 64, .iters = 6},
                   SchedulePolicy::BoundedPreemption, budget,
                   /*first_seed=*/3000 + budget * 100, 40);
  }
}

TEST(TortureInterleave, SameSeedReproducesRunExactly) {
  const RunSpec spec{.workers = 5, .wpg = 3, .iters = 5};
  for (const auto policy :
       {SchedulePolicy::RandomWalk, SchedulePolicy::BoundedPreemption}) {
    ExploreOptions opts;
    opts.seed = 0xfeedface;
    opts.policy = policy;
    const ExploreResult a = run_one(spec, opts);
    const ExploreResult b = run_one(spec, opts);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.steps_executed, b.steps_executed);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.report(), b.report());
  }
}

TEST(TortureInterleave, DifferentSeedsExploreDifferentSchedules) {
  const RunSpec spec{.workers = 4, .wpg = 64, .iters = 4};
  std::set<uint64_t> hashes;
  for (uint64_t s = 0; s < 8; ++s) {
    ExploreOptions opts;
    opts.seed = s;
    const ExploreResult res = run_one(spec, opts);
    ASSERT_TRUE(res.ok) << res.report();
    hashes.insert(res.trace_hash);
  }
  // Not a tautology (hash collisions aside): schedules must actually vary.
  EXPECT_GT(hashes.size(), 4u);
}

TEST(TortureInterleave, FailingSeedYieldsIdenticalReplayableReport) {
  // Force a failure with a deliberately-too-strict invariant and check the
  // failure report replays bit-for-bit from the seed alone.
  const RunSpec spec{.workers = 4, .wpg = 64, .iters = 4};
  auto run_broken = [&spec](uint64_t seed) {
    Harness h(spec.workers, spec.wpg);
    InterleavingExplorer ex({.seed = seed});
    for (WorkerId w = 0; w < spec.workers; ++w) {
      std::string name = "w";
      name += std::to_string(w);
      ex.thread(name)
          .repeat(spec.iters,
                  [&h, w](InterleavingExplorer::ThreadScript& t, uint32_t i) {
                    add_worker_iteration(t, h, w, i);
                  });
    }
    register_invariants(ex, h);
    ex.invariant("bogus-pending-le-2", [&h]() -> std::string {
      for (WorkerId w = 0; w < h.rt->num_workers(); ++w) {
        if (h.pending[w] > 2) {
          return "worker " + std::to_string(w) + " pending " +
                 std::to_string(h.pending[w]);
        }
      }
      return "";
    });
    return ex.run();
  };

  const ExploreResult a = run_broken(77);
  ASSERT_FALSE(a.ok);
  EXPECT_NE(a.failure.find("bogus-pending-le-2"), std::string::npos);

  const ExploreResult b = run_broken(77);
  ASSERT_FALSE(b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.failure_step, b.failure_step);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.report(), b.report());
  // The report is self-contained: it names the seed and the replay recipe.
  EXPECT_NE(a.report().find("seed=77"), std::string::npos);
  EXPECT_NE(a.report().find("replay:"), std::string::npos);
}

}  // namespace
}  // namespace hermes
