#include "sim/trace.h"

#include <sstream>

#include "util/check.h"

namespace hermes::sim {

void Trace::save(std::ostream& os) const {
  os << "# hermes-trace-v1: offset_us tenant requests cost_us bytes gap_us\n";
  for (const auto& e : entries_) {
    os << e.offset_us << ' ' << e.tenant << ' ' << e.requests << ' '
       << e.cost_us << ' ' << e.bytes << ' ' << e.gap_us << '\n';
  }
}

bool Trace::load(std::istream& is, Trace* out) {
  HERMES_CHECK(out != nullptr);
  out->entries_.clear();
  std::string line;
  int64_t prev_offset = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceEntry e;
    if (!(ls >> e.offset_us >> e.tenant >> e.requests >> e.cost_us >>
          e.bytes >> e.gap_us)) {
      return false;
    }
    if (e.offset_us < prev_offset || e.requests < 1 || e.cost_us < 0 ||
        e.gap_us < 0) {
      return false;  // arrivals must be time-ordered and sane
    }
    prev_offset = e.offset_us;
    out->entries_.push_back(e);
  }
  return true;
}

Trace Trace::record(const TrafficPattern& pattern, SimTime duration,
                    uint32_t tenant_span, Rng& rng) {
  HERMES_CHECK(pattern.cps > 0 && tenant_span > 0);
  Trace trace;
  double t_us = 0;
  const double duration_us = duration.us_f();
  for (;;) {
    t_us += rng.exponential(1e6 / pattern.cps);
    if (t_us >= duration_us) break;
    TraceEntry e;
    e.offset_us = static_cast<int64_t>(t_us);
    e.tenant = static_cast<TenantId>(rng.next_below(tenant_span));
    if (pattern.websocket_fraction > 0 &&
        rng.bernoulli(pattern.websocket_fraction)) {
      e.requests = 1;
      e.cost_us = pattern.websocket_cost_us.sample(rng);
    } else {
      e.requests = std::max(1, static_cast<int>(
                                   pattern.requests_per_conn.sample(rng)));
      e.cost_us = pattern.request_cost_us.sample(rng);
    }
    if (pattern.poison_fraction > 0 &&
        rng.bernoulli(pattern.poison_fraction)) {
      e.cost_us = pattern.poison_cost_us.sample(rng);
    }
    e.bytes = static_cast<uint64_t>(pattern.request_bytes.sample(rng));
    e.gap_us = pattern.request_gap_us.sample(rng);
    trace.add(e);
  }
  return trace;
}

void TraceReplayer::replay(const Trace& trace, LbDevice& lb, double rate) {
  HERMES_CHECK(rate > 0);
  const SimTime start = lb.eq().now();
  for (const auto& e : trace.entries()) {
    const SimTime at =
        start + SimTime::micros(static_cast<int64_t>(
                    static_cast<double>(e.offset_us) / rate));
    lb.eq().schedule_at(at, [&lb, e] {
      LbDevice::ConnPlan plan;
      plan.remaining = e.requests;
      // Captured per-connection characteristics replay verbatim: the same
      // connection costs the same whether replayed at 1x or 3x.
      plan.cost_us = DistSpec::constant(e.cost_us);
      plan.bytes = DistSpec::constant(static_cast<double>(e.bytes));
      plan.gap_us = DistSpec::constant(e.gap_us);
      lb.open_connection(e.tenant, plan);
    });
  }
}

}  // namespace hermes::sim
