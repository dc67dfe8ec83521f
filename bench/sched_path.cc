// Stage-1/2 scheduling hot path microbench: ns per sync call for the
// runtime's Stage 2 against the reference cascade (DESIGN.md §8).
//
//   reference  Scheduler::schedule_reference_with_order (per-worker WST
//              read() snapshots, scalar filter loops) plus an
//              unconditional M_sel store per call
//   fast       HermesRuntime::schedule_and_sync: one SoA gather over the
//              group slice, branchless bit-walking fixed-point filters,
//              and change-suppressed sync (the store is skipped while the
//              bitmap is unchanged within sync_refresh_interval)
//
// Scenarios, at 64 workers (one full bitmap word — the paper's group size
// and the acceptance geometry) unless noted:
//   steady   static load split: half the workers over the connection
//            threshold; the bitmap never changes, so the fast path
//            suppresses almost every store (its best case, and the sim's
//            common case — load shifts slowly relative to loop rate);
//   steady 32w  the same at 32 workers, the group width the repository
//            benchmark's workloads run (8 dense SIMD blocks instead of 16);
//   churn    one worker's pending count toggles every call, so the bitmap
//            keeps flipping and suppression almost never fires (the fast
//            path's worst case: pure filter-speed comparison).
//
// Wall-clock metrics carry the _cost_ns / .speedup suffixes and are
// reported but never gated (bench/bench_gate_check.cc); the gated metrics
// are deterministic: the runtime's published/suppressed sync counts and
// both legs' final bitmap checksum over a scripted virtual-time sweep,
// which any change to filter semantics or suppression policy would shift.
// The bench itself aborts unless both checksums equal kSweepChecksum.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/hermes.h"
#include "core/scheduler.h"
#include "simcore/rng.h"
#include "util/check.h"

namespace hermes::bench {
namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename F>
double ns_per_op(F&& op, int iters) {
  for (int i = 0; i < iters / 10; ++i) op(i);  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = cpu_seconds();
    for (int i = 0; i < iters; ++i) op(i);
    best = std::min(best, cpu_seconds() - start);
  }
  return best / iters * 1e9;
}

constexpr uint32_t kWorkers = 64;
constexpr int kTimedIters = 100'000;
// Virtual-time step per call: 1 us, so ~5000 calls fit one 5 ms refresh
// interval — the sim's own ratio of loop rate to refresh rate.
constexpr int64_t kStepNs = 1'000;
// The scripted sweep's bitmap checksum (mod 1e9+7) for the default
// HermesConfig; both legs must reproduce it.
constexpr uint64_t kSweepChecksum = 480425346;

enum class Leg { Reference, Fast };

// Every scenario fits one group (<= 64 workers), so the reference leg
// schedules the whole table and stores into group 0.
core::HermesRuntime make_runtime(uint32_t workers) {
  HERMES_CHECK(workers <= core::kMaxWorkersPerGroup);
  core::HermesRuntime::Options opts;
  opts.num_workers = workers;
  return core::HermesRuntime(opts);
}

// One sync call on `leg`. The reference leg is the cascade oracle plus the
// M_sel store it would make on every call (no change suppression).
core::ScheduleResult sync(Leg leg, core::HermesRuntime& rt, WorkerId self,
                          SimTime now) {
  if (leg == Leg::Fast) return rt.schedule_and_sync(self, now);
  const core::HermesConfig& cfg = rt.scheduler().config();
  const core::ScheduleResult res =
      rt.scheduler().schedule_reference_with_order(
          rt.wst(), now, cfg.stage_order, cfg.num_stages);
  rt.sel_map().store_u64(0, res.bitmap);
  return res;
}

void fill_steady(core::HermesRuntime& rt, SimTime now) {
  for (WorkerId w = 0; w < rt.num_workers(); ++w) {
    rt.hooks_for(w).on_loop_enter(now);
    // Workers with an odd id sit far above the connection average and get
    // filtered: a half-full candidate set through the later stages.
    rt.wst().add_connections(w, (w % 2) != 0 ? 10'000 : 100);
    rt.wst().add_pending(w, static_cast<int64_t>(w % 8));
  }
}

// ns per schedule_and_sync over one group of `workers` (a power of two,
// so the caller rotation is a mask) under the steady load split.
double steady_cost_ns(Leg leg, uint32_t workers) {
  core::HermesRuntime rt = make_runtime(workers);
  const SimTime t0 = SimTime::seconds(1);
  fill_steady(rt, t0);
  int64_t vnow = t0.ns();
  const uint32_t mask = workers - 1;
  // Heartbeat refresh keeps everyone inside the hang threshold without
  // entering the timed loop (50 ms threshold vs 100 ms of virtual time
  // covered): re-heartbeat every 2^15 calls (~33 ms).
  return ns_per_op(
      [&](int i) {
        vnow += kStepNs;
        if ((i & 0x7fff) == 0) {
          for (WorkerId w = 0; w < workers; ++w) {
            rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
          }
        }
        (void)sync(leg, rt, static_cast<WorkerId>(i & mask),
                   SimTime::nanos(vnow));
      },
      kTimedIters);
}

struct PathResult {
  double steady_cost_ns = 0;
  double steady_32w_cost_ns = 0;
  double churn_cost_ns = 0;
  uint64_t sweep_syncs = 0;  // fast leg only; the reference stores always
  uint64_t sweep_suppressed = 0;
  uint64_t bitmap_checksum = 0;
};

PathResult run_path(Leg leg) {
  PathResult r;

  r.steady_cost_ns = steady_cost_ns(leg, kWorkers);
  r.steady_32w_cost_ns = steady_cost_ns(leg, 32);

  // --- churn scenario --------------------------------------------------
  {
    core::HermesRuntime rt = make_runtime(kWorkers);
    const SimTime t0 = SimTime::seconds(1);
    fill_steady(rt, t0);
    int64_t vnow = t0.ns();
    r.churn_cost_ns = ns_per_op(
        [&](int i) {
          vnow += kStepNs;
          if ((i & 0x7fff) == 0) {
            for (WorkerId w = 0; w < kWorkers; ++w) {
              rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
            }
          }
          // Toggle worker 0 across the pending-events threshold: the
          // bitmap flips every call, so suppression never helps.
          rt.wst().add_pending(0, (i & 1) != 0 ? -1'000 : 1'000);
          (void)sync(leg, rt, static_cast<WorkerId>(i & 63),
                     SimTime::nanos(vnow));
        },
        kTimedIters);
  }

  // --- deterministic scripted sweep (gated metrics) ---------------------
  // Fixed mutation script over virtual time; counters and the bitmap
  // checksum must be identical on every machine and every run.
  {
    core::HermesRuntime rt = make_runtime(kWorkers);
    sim::Rng rng(42);
    int64_t vnow = SimTime::seconds(1).ns();
    for (WorkerId w = 0; w < kWorkers; ++w) {
      rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
      rt.wst().add_connections(w, static_cast<int64_t>(rng.next_below(200)));
    }
    for (int i = 0; i < 20'000; ++i) {
      vnow += kStepNs;
      if (i % 1000 == 0) {
        for (WorkerId w = 0; w < kWorkers; ++w) {
          rt.hooks_for(w).on_loop_enter(SimTime::nanos(vnow));
        }
      }
      if (i % 64 == 0) {
        const auto w = static_cast<WorkerId>(rng.next_below(kWorkers));
        rt.wst().add_connections(w, 500);
      }
      const auto res = sync(leg, rt, static_cast<WorkerId>(i & 63),
                            SimTime::nanos(vnow));
      r.bitmap_checksum = r.bitmap_checksum * 1099511628211ull ^ res.bitmap;
    }
    r.sweep_syncs = rt.counters().syncs;
    r.sweep_suppressed = rt.counters().syncs_suppressed;
  }
  return r;
}

// Differential spot check inside the bench itself: the two legs must
// compute identical bitmaps on the bench's own scenarios, or the timing
// comparison is between two different schedulers.
void check_paths_agree() {
  core::HermesRuntime rt = make_runtime(kWorkers);
  const SimTime now = SimTime::seconds(1);
  fill_steady(rt, now);
  const core::Scheduler& s = rt.scheduler();
  const auto& cfg = s.config();
  const auto fast = s.schedule_with_order(rt.wst(), now, cfg.stage_order,
                                          cfg.num_stages, 0, kWorkers);
  const auto ref = s.schedule_reference_with_order(
      rt.wst(), now, cfg.stage_order, cfg.num_stages, 0, kWorkers);
  HERMES_CHECK_MSG(fast.bitmap == ref.bitmap &&
                       fast.after_time == ref.after_time &&
                       fast.after_conn == ref.after_conn &&
                       fast.after_event == ref.after_event,
                   "fast/reference scheduler divergence");
}

int main_impl(int argc, char** argv) {
  BenchJson json("sched_path", &argc, argv);
  header("sched_path: ns/schedule_and_sync per scheduler path, 64 workers");

  check_paths_agree();

  const PathResult ref = run_path(Leg::Reference);
  const PathResult fast = run_path(Leg::Fast);
  HERMES_CHECK_MSG(fast.bitmap_checksum % 1'000'000'007 == kSweepChecksum &&
                       ref.bitmap_checksum % 1'000'000'007 == kSweepChecksum,
                   "scripted sweep bitmap checksum moved");

  std::printf("\n%-12s %16s %16s %20s\n", "path", "steady ns/call",
              "churn ns/call", "steady 32w ns/call");
  std::printf("%-12s %16.1f %16.1f %20.1f\n", "reference", ref.steady_cost_ns,
              ref.churn_cost_ns, ref.steady_32w_cost_ns);
  std::printf("%-12s %16.1f %16.1f %20.1f\n", "fast", fast.steady_cost_ns,
              fast.churn_cost_ns, fast.steady_32w_cost_ns);

  const double steady_speedup = ref.steady_cost_ns / fast.steady_cost_ns;
  const double churn_speedup = ref.churn_cost_ns / fast.churn_cost_ns;
  std::printf("\nspeedup steady: %.2fx   churn: %.2fx\n", steady_speedup,
              churn_speedup);

  const double total = 20'000.0;
  std::printf("scripted sweep (20k calls): fast published %llu, suppressed "
              "%llu (%.1f%%); reference stores every call\n",
              static_cast<unsigned long long>(fast.sweep_syncs),
              static_cast<unsigned long long>(fast.sweep_suppressed),
              100.0 * static_cast<double>(fast.sweep_suppressed) / total);

  std::printf("\npaper says: the per-loop scheduling work must stay in the "
              "noise (Table 5 < 5%%);\nwe measure the fast path keeping it "
              "there. The ratio is wall-clock and moves with\nmachine load, "
              "so it is reported, not judged.\n");
  std::printf("fast/reference: steady %.2fx, steady 32w %.2fx; bitmaps "
              "identical (checked)\n",
              steady_speedup,
              ref.steady_32w_cost_ns / fast.steady_32w_cost_ns);

  // Wall-clock: reported, never gated.
  json.metric("reference_steady_cost_ns", ref.steady_cost_ns);
  json.metric("reference_churn_cost_ns", ref.churn_cost_ns);
  json.metric("fast_steady_cost_ns", fast.steady_cost_ns);
  json.metric("fast_churn_cost_ns", fast.churn_cost_ns);
  json.metric("steady.speedup", steady_speedup);
  json.metric("churn.speedup", churn_speedup);
  json.metric("reference_steady_32w_cost_ns", ref.steady_32w_cost_ns);
  json.metric("fast_steady_32w_cost_ns", fast.steady_32w_cost_ns);
  // Deterministic: gated against bench/baseline.json.
  json.metric("fast_sweep_syncs", static_cast<double>(fast.sweep_syncs));
  json.metric("fast_sweep_suppressed",
              static_cast<double>(fast.sweep_suppressed));
  json.metric("sweep_bitmap_checksum_fast",
              static_cast<double>(fast.bitmap_checksum % 1'000'000'007));
  json.metric("sweep_bitmap_checksum_reference",
              static_cast<double>(ref.bitmap_checksum % 1'000'000'007));
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  return hermes::bench::main_impl(argc, argv);
}
