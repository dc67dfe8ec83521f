// Fleet: N Hermes LB instances behind a stateless consistent-hashing front
// tier — the production topology the ROADMAP's north star calls for, at the
// scale where per-connection consistency (PCC) becomes the metric that
// matters ("LB Scalability: Stateful vs Stateless", PAPERS.md).
//
// The front tier keeps no per-flow state: every packet of a connection is
// routed by hashing its four-tuple through a Maglev lookup table over the
// active LB set. That makes the tier trivially scalable, but membership
// churn (LB add/remove) moves table slots — and every live connection whose
// slot moved now lands on an LB with no state for it (a PCC violation:
// the connection breaks). Maglev's guarantee is that churn moves few slots;
// the mod-N baseline (reciprocal_scale over the active count, what naive
// ECMP does) moves almost all of them. Fleet measures both, by scanning the
// SoA connection slabs of every device and re-routing each live tuple.
//
// It also runs the paper's fleet operations: the canary release of Fig. 11
// (add_lb(mode), then drain the old devices) and the sandbox migration of
// Appendix C (pin_tenant).
//
// The front tier hands each routed SYN to its device's own admission step,
// the one every SYN takes, so a device admits exactly the tuple it was
// routed. Each LbDevice keeps its own event queue; devices only interact
// through connection arrivals, so the fleet advances them in bounded
// lockstep.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/four_tuple.h"
#include "sim/lb.h"

namespace hermes::sim {

// Maglev consistent-hash lookup table (Eisenbud et al., NSDI'16): each
// backend fills table slots by walking its own permutation of [0, M);
// every backend gets within one slot of M/N, and removing a backend only
// reassigns the slots it owned (plus a small perturbation).
class MaglevTable {
 public:
  // `size` should be prime and >> max backend count; 65537 here.
  explicit MaglevTable(uint32_t size = 65537) : size_(size) {}

  // Rebuild the table over `backends` (stable ids; order-insensitive by
  // construction since permutations depend only on the id).
  void build(const std::vector<uint32_t>& backends) {
    table_.assign(size_, kEmpty);
    if (backends.empty()) return;
    const size_t n = backends.size();
    std::vector<uint32_t> offset(n), skip(n), next(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = backends[i];
      offset[i] = netsim::jhash_3words(id, 0x6d61676cu, 0xe1u, 0) % size_;
      skip[i] = netsim::jhash_3words(id, 0x6d61676cu, 0xe2u, 0) %
                    (size_ - 1) + 1;
    }
    uint32_t filled = 0;
    while (filled < size_) {
      for (size_t i = 0; i < n && filled < size_; ++i) {
        // Walk backend i's permutation to its next unclaimed slot.
        uint32_t slot;
        do {
          slot = (offset[i] + next[i] * skip[i]) % size_;
          ++next[i];
        } while (table_[slot] != kEmpty);
        table_[slot] = backends[i];
        ++filled;
      }
    }
  }

  bool empty() const { return table_.empty() || table_[0] == kEmpty; }
  uint32_t size() const { return size_; }
  // Backend id owning `hash`'s slot.
  uint32_t lookup(uint32_t hash) const { return table_[hash % size_]; }
  uint32_t slot_owner(uint32_t slot) const { return table_[slot]; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  uint32_t size_;
  std::vector<uint32_t> table_;
};

class Fleet {
 public:
  struct Config {
    uint32_t num_lbs = 4;
    LbDevice::Config device{};    // per-device seed derived from seed + index
    uint64_t seed = 1;
  };

  explicit Fleet(Config cfg);

  size_t device_count() const { return devices_.size(); }
  size_t active_count() const;
  LbDevice& device(size_t i) { return *devices_[i]; }
  // In the front-tier rotation (neither draining nor removed).
  bool active(size_t i) const { return state_[i] == Member::Active; }

  // ---- front tier ------------------------------------------------------
  // Maglev route: device index owning this flow hash (SIZE_MAX if no
  // active device).
  size_t route(uint32_t flow_hash) const;
  // Mod-N baseline: reciprocal_scale over the active devices in index
  // order — what a naive ECMP front tier does.
  size_t route_mod(uint32_t flow_hash) const;

  // Open `count` connections for `tenant`: each tuple is drawn from the
  // fleet RNG, routed by Maglev exactly as the front tier would route the
  // SYN (or to the tenant's pinned device), and admitted by that device's
  // own SYN step — rate limit, reuseport select, backlog. Drops are final
  // (no SYN retry). Returns established.
  size_t open_burst(TenantId tenant, const LbDevice::ConnPlan& plan,
                    size_t count);

  // ---- membership churn ------------------------------------------------
  // Add one LB instance running dispatch `mode`; the table rebuild remaps
  // ~1/N of the hash space. Returns the new device's index.
  size_t add_lb(netsim::DispatchMode mode);
  size_t add_lb() { return add_lb(cfg_.device.mode); }

  // Remove LB `i` from the rotation. Its live connections are broken (the
  // stateless tier cannot pin them anywhere) and closed; surviving
  // connections on other devices may also be remapped by the rebuild.
  // Tenants pinned to it fall back to the hash.
  void remove_lb(size_t i);

  // Canary drain: take active LB `i` out of the rotation without breaking
  // anything. It gets no new connections (unless a tenant is pinned to
  // it), keeps running, and its live connections finish on it; they still
  // count in total_live().
  void drain(size_t i);

  // ---- sandbox pinning -------------------------------------------------
  // Route every new connection of `tenant` to device `i` (draining or
  // active), bypassing the hash. The audit honours the pin.
  void pin_tenant(TenantId tenant, size_t i);
  void unpin_tenant(TenantId tenant) { pins_.erase(tenant); }

  // ---- PCC audit -------------------------------------------------------
  // Scan every active device's connection slab (SoA column walk) and
  // re-route each live connection through the CURRENT front-tier decision:
  // its tenant's pin, else the tuple hash.
  struct PccAudit {
    uint64_t checked = 0;            // live connections scanned
    uint64_t maglev_violations = 0;  // Maglev now routes elsewhere
    uint64_t modn_violations = 0;    // mod-N baseline routes elsewhere
  };
  PccAudit audit_pcc();

  uint64_t broken_total() const { return broken_total_; }

  // ---- fleet-scale imbalance (Table-2 style, across devices) -----------
  struct Imbalance {
    double conn_avg = 0;
    double conn_sd = 0;
    uint64_t conn_max = 0;
    uint64_t conn_min = 0;
    double max_over_avg = 0;
  };
  Imbalance imbalance() const;

  // ---- clock -----------------------------------------------------------
  // Advance every device's queue to `until` in `step`-sized slices.
  void run_until(SimTime until, SimTime step = SimTime::millis(100));
  SimTime now() const { return now_; }

  uint64_t total_live() const;  // active and draining devices
  uint64_t total_completed() const;
  uint64_t total_dropped() const;

  // Aggregated L7 data-plane totals across all devices (zero when the
  // fleet's device config leaves the data plane off). Per-device stream
  // hashes are combined by XOR into a fleet-level identity.
  DataPlane::Totals data_plane_totals() const;

 private:
  enum class Member : uint8_t { Active, Draining, Removed };

  size_t index_of_id(uint32_t id) const;  // device index for a backend id
  // Device `tenant` is pinned to, or SIZE_MAX.
  size_t pinned_device(TenantId tenant) const {
    if (pins_.empty()) return SIZE_MAX;
    const auto it = pins_.find(tenant);
    return it == pins_.end() ? SIZE_MAX : it->second;
  }
  void add_device(netsim::DispatchMode mode);
  void rebuild_tables();

  Config cfg_;
  std::vector<std::unique_ptr<LbDevice>> devices_;
  std::vector<uint32_t> ids_;      // stable backend id per device index
  std::vector<Member> state_;
  std::unordered_map<TenantId, size_t> pins_;
  MaglevTable maglev_;
  Rng rng_;
  SimTime now_{};
  uint64_t broken_total_ = 0;
  uint32_t next_id_ = 0;
};

}  // namespace hermes::sim
