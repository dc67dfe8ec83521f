// Tunables of the Hermes control loop, with the paper's production values
// as defaults. They stay settable because the paper's experiments vary
// them: Fig. 15 sweeps θ, the ablations swap the filter order and group
// width, and the control plane (core/control.h) retunes them live.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace hermes::core {

// Cascade stages of the coarse-grained filter (Algo. 1).
enum class FilterStage : uint8_t { Time, Connections, PendingEvents };

struct HermesConfig {
  // FilterTime: a worker whose event-loop-entry timestamp is older than
  // this is considered hung and excluded (paper §5.2.2, Algo. 1 line 10).
  // Workers re-enter the loop at least every epoll_wait timeout (5 ms), so
  // the threshold is a small multiple of that.
  SimTime hang_threshold = SimTime::millis(50);

  // FilterCount offset: keep workers with metric < avg + theta, where
  // theta = theta_ratio * avg. Fig. 15 sweeps theta/Avg and lands on 0.5.
  double theta_ratio = 0.5;

  // Kernel-side fine filter: if fewer than this many workers passed the
  // coarse filter, fall back to plain reuseport hashing (Algo. 2 line 4:
  // "if n > 1"). kMinWorkersForDispatch = 2 reproduces that check.
  uint32_t min_workers_for_dispatch = 2;

  // Two-level scheduling (>64 workers): workers per group. 64 fills the
  // bitmap word; smaller values trade balance for cache locality
  // (Appendix C, Fig. A6).
  uint32_t workers_per_group = 64;

  // Change-suppressed sync (DESIGN.md §8): when a schedule computes a
  // bitmap identical to the group's last push, the M_sel store is skipped
  // — unless the last push is at least this old. The forced refresh
  // bounds the staleness a lost cross-worker race can cause to one
  // interval; the default matches the worker loop's 5 ms epoll_wait
  // timeout (sim::Worker::kEpollTimeout), the paper's own scheduling-pass
  // frequency floor (§5.3.2 strategy 1).
  SimTime sync_refresh_interval = SimTime::millis(5);

  // Cascade order (paper default: Time -> Connections -> PendingEvents;
  // §5.2.2 justifies the order, the ablation bench swaps it).
  FilterStage stage_order[3] = {FilterStage::Time, FilterStage::Connections,
                                FilterStage::PendingEvents};
  uint32_t num_stages = 3;

  // Proactive degradation (Appendix C, exception case 1): once a worker has
  // been hung longer than `degradation_after`, reset this fraction of its
  // established connections so clients reconnect onto healthy workers.
  SimTime degradation_after = SimTime::millis(500);
  double degradation_reset_fraction = 0.25;
};

}  // namespace hermes::core
