// Hermes stage 2: the cascading worker filter (paper Algo. 1, §5.2.2).
//
// schedule() is the coarse-grained filter every worker runs at the end of
// its epoll event loop:
//   1. FilterTime:  drop workers whose loop-entry timestamp is stale
//                   (hung/crashed detection) — stability first;
//   2. FilterCount(conn):  keep workers with connections < avg + theta
//                   (guards against the "lag effect" of synchronized surges
//                   over accumulated connections);
//   3. FilterCount(event): keep workers with pending events < avg + theta
//                   (fast responders, lower latency).
// The filtering ORDER is a design decision the paper justifies; the
// ablation bench swaps it to show why. theta = theta_ratio * avg (Fig. 15).
//
// One production implementation plus its oracle (DESIGN.md §8):
//   * schedule() / schedule_gathered() — one SoA gather over the group
//     slice, then per stage either branchless bit-walking (`w &= w - 1`)
//     over surviving candidates or, on AVX2 with at least one candidate
//     per 4-lane block, a dense vector pass at any group width. This is
//     the only path a runtime runs;
//   * schedule_reference_with_order() — per-worker read() snapshots,
//     scalar loops over all slots; structurally the obviously-correct
//     transcription of Algo. 1, kept as a pure function for differential
//     tests and bench/sched_path.
// Both use exact 128-bit fixed-point threshold math (see theta_permille),
// so their bitmaps are identical bit for bit; tests/sched_fast_test.cc
// proves it.
//
// Single O(n) pass per filter over at most 64 workers; no allocation on the
// hot path.
#pragma once

#include <cstdint>

#include "core/bitmap.h"
#include "core/config.h"
#include "core/wst.h"
#include "util/types.h"

namespace hermes::core {

struct ScheduleResult {
  WorkerBitmap bitmap = 0;       // workers surviving all filters
  uint32_t after_time = 0;       // survivors after FilterTime
  uint32_t after_conn = 0;       // survivors after FilterCount(conn)
  uint32_t after_event = 0;      // survivors after FilterCount(event)
  uint32_t selected = 0;         // popcount(bitmap)
  // Set by HermesRuntime::schedule_and_sync: true when the bitmap was
  // stored into M_sel, false when the sync was change-suppressed or
  // dropped by fault injection.
  bool published = false;
};

// The Stage-2 implementation a runtime runs. There is one; the enum is
// kept only because the repository benchmark prints it on its config line
// (perfbench/src/main.cc).
enum class SchedPath : uint8_t {
  Fast,  // SoA gather + branchless bit-walking
};

const char* to_string(SchedPath p);

constexpr SchedPath default_sched_path() { return SchedPath::Fast; }

// theta_ratio quantized to permille for the exact integer threshold
// comparison `v*n*1000 < sum*(1000 + theta_permille)`. Clamped to
// [0, 10^15] so |sum * (1000 + tpm)| < 2^69 * 2^50 stays far inside
// a signed 128-bit product.
int64_t theta_permille_of(double theta_ratio);

class Scheduler {
 public:
  explicit Scheduler(HermesConfig cfg) : cfg_(cfg) {}

  const HermesConfig& config() const { return cfg_; }
  // Live policy updates (PolicyEndpoint / ops tooling). Safe: the
  // scheduler reads its config afresh on every schedule() call.
  HermesConfig& mutable_config() { return cfg_; }

  // Run Algo. 1 over the first `limit` workers of the WST starting at
  // `base` (group slicing for >64-worker machines); limit <= 64.
  ScheduleResult schedule(const WorkerStatusTable& wst, SimTime now,
                          WorkerId base = 0, uint32_t limit = 0) const;

  // Ablation hook: run the cascade in a custom stage order.
  ScheduleResult schedule_with_order(const WorkerStatusTable& wst, SimTime now,
                                     const FilterStage* order,
                                     uint32_t num_stages, WorkerId base = 0,
                                     uint32_t limit = 0) const;

  // The retained reference implementation (differential tests, bench).
  // Same semantics as schedule_with_order.
  ScheduleResult schedule_reference_with_order(const WorkerStatusTable& wst,
                                               SimTime now,
                                               const FilterStage* order,
                                               uint32_t num_stages,
                                               WorkerId base = 0,
                                               uint32_t limit = 0) const;

  // The cascade over an already-gathered SoA slice (arrays of exactly
  // `limit` entries; nothing past them is read). schedule_with_order is a gather followed by this call;
  // HermesRuntime::schedule_and_sync calls it directly so the policy's
  // aux refresh reads the same arrays.
  ScheduleResult schedule_gathered(const int64_t* loop_enter_ns,
                                   const int64_t* pending_events,
                                   const int64_t* connections, uint32_t limit,
                                   SimTime now, const FilterStage* order,
                                   uint32_t num_stages) const;

  // FilterTime predicate exposed for reuse (degradation, probes).
  bool is_hung(const WorkerSnapshot& snap, SimTime now) const {
    return now.ns() - snap.loop_enter_ns > cfg_.hang_threshold.ns();
  }

 private:
  HermesConfig cfg_;
};

}  // namespace hermes::core
