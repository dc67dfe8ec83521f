#include "sim/fleet.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hermes::sim {

Fleet::Fleet(Config cfg)
    : cfg_(cfg), rng_(cfg.seed ^ 0xf1ee7f1ee7ull) {
  HERMES_CHECK(cfg_.num_lbs > 0);
  devices_.reserve(cfg_.num_lbs);
  for (uint32_t i = 0; i < cfg_.num_lbs; ++i) add_device(cfg_.device.mode);
  rebuild_tables();
}

void Fleet::add_device(netsim::DispatchMode mode) {
  LbDevice::Config dc = cfg_.device;
  dc.mode = mode;
  dc.seed = cfg_.seed * 0x9e3779b97f4a7c15ull + next_id_ + 1;
  devices_.push_back(std::make_unique<LbDevice>(dc));
  ids_.push_back(next_id_++);
  state_.push_back(Member::Active);
}

size_t Fleet::active_count() const {
  return static_cast<size_t>(
      std::count(state_.begin(), state_.end(), Member::Active));
}

void Fleet::rebuild_tables() {
  std::vector<uint32_t> members;
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (active(i)) members.push_back(ids_[i]);
  }
  maglev_.build(members);
}

size_t Fleet::index_of_id(uint32_t id) const {
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) return i;
  }
  return SIZE_MAX;
}

size_t Fleet::route(uint32_t flow_hash) const {
  if (active_count() == 0) return SIZE_MAX;
  return index_of_id(maglev_.lookup(flow_hash));
}

size_t Fleet::route_mod(uint32_t flow_hash) const {
  const size_t n = active_count();
  if (n == 0) return SIZE_MAX;
  uint32_t k = netsim::reciprocal_scale(flow_hash,
                                        static_cast<uint32_t>(n));
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (!active(i)) continue;
    if (k == 0) return i;
    --k;
  }
  return SIZE_MAX;
}

size_t Fleet::open_burst(TenantId tenant, const LbDevice::ConnPlan& plan,
                         size_t count) {
  const size_t pin = pinned_device(tenant);
  if (pin == SIZE_MAX && active_count() == 0) return 0;
  // The dport must match what the chosen device binds for this tenant;
  // port layout is identical across devices (same Config), so tuple
  // generation does not depend on the routing decision.
  const auto dport = static_cast<PortId>(
      LbDevice::kFirstPort + tenant % cfg_.device.num_ports);
  size_t established = 0;
  for (size_t i = 0; i < count; ++i) {
    const netsim::FourTuple t = draw_client_tuple(rng_, dport);
    const size_t dev = pin != SIZE_MAX ? pin : route(netsim::skb_hash(t));
    HERMES_DCHECK(dev != SIZE_MAX);
    // A drop is final: a retry would draw a new tuple on the device and
    // bypass this tier.
    LbDevice& lb = *devices_[dev];
    if (lb.admit(tenant, t, plan, lb.eq().now()).id != 0) ++established;
  }
  return established;
}

size_t Fleet::add_lb(netsim::DispatchMode mode) {
  add_device(mode);
  // New devices join at the fleet clock (their queue starts at zero).
  devices_.back()->eq().run_until(now_);
  rebuild_tables();
  return devices_.size() - 1;
}

void Fleet::remove_lb(size_t i) {
  HERMES_CHECK(i < devices_.size() && state_[i] != Member::Removed);
  state_[i] = Member::Removed;
  std::erase_if(pins_, [i](const auto& pin) { return pin.second == i; });
  rebuild_tables();
  // Every connection still on the removed device is broken: the stateless
  // front tier now routes its packets to a device with no state for it.
  broken_total_ += devices_[i]->live_connections();
  devices_[i]->close_fraction(1.0);
}

void Fleet::drain(size_t i) {
  HERMES_CHECK(i < devices_.size() && active(i));
  state_[i] = Member::Draining;
  rebuild_tables();
}

void Fleet::pin_tenant(TenantId tenant, size_t i) {
  HERMES_CHECK(i < devices_.size() && state_[i] != Member::Removed);
  pins_[tenant] = i;
}

Fleet::PccAudit Fleet::audit_pcc() {
  PccAudit audit;
  const bool any_pins = !pins_.empty();
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active(d)) continue;
    devices_[d]->netstack().conns().for_each_live(
        [&](netsim::Connection c) {
          ++audit.checked;
          const size_t pin = any_pins ? pinned_device(c.tenant()) : SIZE_MAX;
          if (pin != SIZE_MAX) {  // both tiers send it to the pinned device
            audit.maglev_violations += pin != d;
            audit.modn_violations += pin != d;
            return;
          }
          const uint32_t h = netsim::skb_hash(c.tuple());
          if (route(h) != d) ++audit.maglev_violations;
          if (route_mod(h) != d) ++audit.modn_violations;
        });
  }
  return audit;
}

Fleet::Imbalance Fleet::imbalance() const {
  Imbalance im;
  uint64_t total = 0, n = 0;
  uint64_t mx = 0, mn = UINT64_MAX;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active(d)) continue;
    const uint64_t live = devices_[d]->live_connections();
    total += live;
    mx = std::max(mx, live);
    mn = std::min(mn, live);
    ++n;
  }
  if (n == 0) return im;
  im.conn_avg = static_cast<double>(total) / static_cast<double>(n);
  double var = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (!active(d)) continue;
    const double diff = static_cast<double>(devices_[d]->live_connections()) -
                        im.conn_avg;
    var += diff * diff;
  }
  im.conn_sd = std::sqrt(var / static_cast<double>(n));
  im.conn_max = mx;
  im.conn_min = mn;
  im.max_over_avg = im.conn_avg > 0
                        ? static_cast<double>(mx) / im.conn_avg
                        : 0;
  return im;
}

void Fleet::run_until(SimTime until, SimTime step) {
  SimTime t = now_;
  while (t < until) {
    t = std::min(until, t + step);
    for (size_t d = 0; d < devices_.size(); ++d) {
      // Draining and removed devices keep running their queues
      // (in-flight work finishes) but receive no new connections.
      devices_[d]->eq().run_until(t);
    }
    now_ = t;
  }
}

uint64_t Fleet::total_live() const {
  uint64_t sum = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (state_[d] != Member::Removed) sum += devices_[d]->live_connections();
  }
  return sum;
}

uint64_t Fleet::total_completed() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->totals().requests_completed;
  return sum;
}

uint64_t Fleet::total_dropped() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->totals().conns_dropped;
  return sum;
}

DataPlane::Totals Fleet::data_plane_totals() const {
  DataPlane::Totals t;
  t.backend_stream_hash = 0;
  t.client_stream_hash = 0;
  for (const auto& d : devices_) {
    const DataPlane* dp = d->data_plane();
    if (dp == nullptr) continue;
    const DataPlane::Totals s = dp->totals();
    t.requests_forwarded += s.requests_forwarded;
    t.responses_returned += s.responses_returned;
    t.bytes_in += s.bytes_in;
    t.bytes_out += s.bytes_out;
    t.bytes_zero_copied += s.bytes_zero_copied;
    t.bytes_copied += s.bytes_copied;
    t.pool_hits += s.pool_hits;
    t.pool_misses += s.pool_misses;
    t.pool_expiries += s.pool_expiries;
    t.pool_evictions += s.pool_evictions;
    t.parse_errors += s.parse_errors;
    t.backend_stream_hash ^= s.backend_stream_hash;
    t.client_stream_hash ^= s.client_stream_hash;
  }
  return t;
}

}  // namespace hermes::sim
