// Proactive service degradation (paper Appendix C, exception case 1).
//
// Established connections cannot migrate between workers (per-core
// affinity), so when a worker stays hung past a threshold Hermes resets a
// fraction of its connections: clients reconnect, and the *new* connections
// are dispatched to healthy workers by the normal closed loop. "L7 users
// prioritize the eventual success of their requests ... even at the expense
// of L4 connection stability."
//
// Pure decision logic with no state of its own: the host (simulator or
// live demo) supplies the hung worker's connection ids, applies the resets
// it returns, and counts them (LbDevice::Totals::degradation_resets).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/wst.h"
#include "util/types.h"

namespace hermes::core {

class DegradationPolicy {
 public:
  explicit DegradationPolicy(const HermesConfig& cfg) : cfg_(cfg) {}

  // True when `w` has been out of its event loop long enough to warrant
  // degradation (a stronger condition than the scheduler's hang filter).
  bool should_degrade(const WorkerStatusTable& wst, WorkerId w,
                      SimTime now) const {
    const int64_t stale = now.ns() - wst.read(w).loop_enter_ns;
    return stale > cfg_.degradation_after.ns();
  }

  // Pick the subset of `conns` to RST: every k-th connection such that
  // ~reset_fraction of them are chosen, deterministically spread (no RNG:
  // the same decision must be reproducible across the embedded schedulers).
  // `salt` decorrelates successive rounds so repeated degradation does not
  // keep resetting the same survivors.
  std::vector<uint64_t> pick_resets(std::span<const uint64_t> conns,
                                    uint64_t salt = 0) const {
    std::vector<uint64_t> out;
    if (conns.empty() || cfg_.degradation_reset_fraction <= 0.0) return out;
    const double f = std::min(1.0, cfg_.degradation_reset_fraction);
    const auto stride = static_cast<size_t>(1.0 / f);
    out.reserve(conns.size() / stride + 1);
    for (size_t i = salt % stride; i < conns.size(); i += stride) {
      out.push_back(conns[i]);
    }
    return out;
  }

 private:
  HermesConfig cfg_;
};

}  // namespace hermes::core
