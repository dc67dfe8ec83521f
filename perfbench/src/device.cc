// Single-device workloads: short_conn and keepalive_l7.
//
// The benchmark generates the load itself. Poisson SYN arrival times and
// tenants come from its own RNG (seeded by --seed); each connection's plan
// comes from the public sim::case_pattern + LbDevice::plan_from_pattern,
// and arrivals enter through LbDevice::open_connection with eq().run_until
// between them.
#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace perfbench {
namespace {

using hermes::SimTime;
using hermes::TenantId;
namespace sim = hermes::sim;

struct DeviceSpec {
  int case_id = 1;
  double load = 3;
  uint32_t workers = 32;
  uint32_t ports = 32;
  bool data_plane = false;
  // Warm start for long-lived connections: the population the pattern
  // holds in steady state opens during [0, warm_open), each connection
  // joining at a uniformly drawn point of its life, so the window sees the
  // steady state instead of a ten-second ramp.
  SimTime warm_open{};
  SimTime warmup{};  // simulated results cover completions in [warmup, end]
  SimTime end{};
  // Sized so one repetition has over a thousand steady-state slices.
  SimTime slice = SimTime::millis(1);
  // Fig. 13 sampling: per-worker CPU SD over each period, averaged.
  SimTime cpu_sample = SimTime::millis(20);
};

DeviceSpec spec_for(const Options& opt) {
  DeviceSpec s;
  if (opt.workload == "short_conn") {
    s.case_id = 1;
    s.warmup = SimTime::millis(200);
    s.end = opt.smoke ? SimTime::millis(400) : SimTime::millis(1600);
  } else {
    s.case_id = 3;
    s.load = 2.5;
    s.data_plane = true;
    s.slice = SimTime::micros(500);
    s.warm_open = SimTime::millis(200);
    s.warmup = SimTime::millis(400);
    s.end = opt.smoke ? SimTime::millis(500) : SimTime::millis(1200);
  }
  return s;
}

double mean_of(const sim::DistSpec& d) {
  switch (d.kind) {
    case sim::DistSpec::Kind::Const: return d.a;
    case sim::DistSpec::Kind::Uniform: return (d.a + d.b) / 2;
    case sim::DistSpec::Kind::Exp: return d.a;
    case sim::DistSpec::Kind::Lognormal: return d.a * std::exp(d.b * d.b / 2);
    case sim::DistSpec::Kind::ParetoBounded: return d.b;
  }
  return d.a;
}

class DeviceWorkload final : public Workload {
 public:
  explicit DeviceWorkload(const Options& opt)
      : opt_(opt),
        spec_(spec_for(opt)),
        pattern_(sim::case_pattern(spec_.case_id, spec_.workers, spec_.load)) {}

  void setup() override {
    sim::LbDevice::Config cfg;
    cfg.mode = hermes::netsim::DispatchMode::HermesMode;
    cfg.policy = hermes::core::PolicyKind::Cascade;
    cfg.num_workers = spec_.workers;
    cfg.num_ports = spec_.ports;
    cfg.seed = opt_.seed;
    cfg.data_plane.enabled = spec_.data_plane;
    cfg.data_plane.zero_copy = true;
    dp_config_ = cfg.data_plane;
    lb_ = std::make_unique<sim::LbDevice>(cfg);
    lb_->set_request_done_fn([this](TenantId, SimTime latency) {
      const SimTime now = lb_->eq().now();
      if (now >= spec_.warmup && now <= spec_.end) {
        latencies_.push_back(static_cast<double>(latency.ns()));
      }
    });
    arm_arrivals();
  }

  Rep run(bool traced, Report& report) override {
    latencies_.clear();
    slice_ms_.clear();
    cpu_sds_.clear();
    const AllocCount a0 = alloc_count();
    const auto t0 = Clock::now();
    if (traced) {
      reset_trace();
      drive<true>();
    } else {
      drive<false>();
    }
    const auto t1 = Clock::now();
    const AllocCount a1 = alloc_count();

    const Counts c = read_counts(*lb_);
    c.check(report, opt_.workload);

    Rep rep;
    rep.window_s = seconds_between(t0, t1);
    rep.requests = c.requests_completed;
    rep.conns = c.conns_opened;
    rep.syns = c.conns_opened + c.conns_dropped + c.rate_limited;
    rep.failures = c.conns_dropped + c.rate_limited + c.dp.parse_errors;
    rep.slice_ms = slice_ms_;
    // Slices before the warmup boundary also pay first-touch page faults
    // of a fresh device; the quantiles cover the steady state only.
    rep.steady_begin = static_cast<size_t>(spec_.warmup.ns() / spec_.slice.ns());
    rep.steady_end = slice_ms_.size();
    const double window_s = (spec_.end - spec_.warmup).s_f();
    rep.sim_krps = static_cast<double>(latencies_.size()) / window_s / 1e3;
    rep.sim_p50_ms = quantile(latencies_, 0.50) / 1e6;
    rep.sim_p99_ms = quantile(latencies_, 0.99) / 1e6;
    double sd_sum = 0;
    for (double sd : cpu_sds_) sd_sum += sd;
    rep.sim_cpu_sd_pp = 100 * ratio(sd_sum, static_cast<double>(cpu_sds_.size()));

    Digest d;
    c.digest_into(d);
    d.add(latencies_.size());
    for (double v : {rep.sim_p50_ms, rep.sim_p99_ms, rep.sim_cpu_sd_pp}) {
      d.add_double(v);
    }
    rep.digest = d.value();

    if (traced) {
      traced_counts_ = c;
      traced_allocs_ = AllocCount{a1.calls - a0.calls, a1.bytes - a0.bytes, 0};
      ledger_.requests = c.requests_completed;
      ledger_.window_ns = static_cast<double>(ns_between(t0, t1));
    }
    return rep;
  }

  void teardown() override { lb_.reset(); }

  Layers layers(Ledger* ledger) override {
    const Counts& c = traced_counts_;
    Layers l;
    l.from_counts(c, traced_allocs_.calls, traced_allocs_.bytes);
    const double reqs = static_cast<double>(c.requests_completed);
    l.simcore_pending_peak = static_cast<double>(pending_peak_);
    l.netsim_live_conns_peak = static_cast<double>(live_peak_);
    l.netsim_admit_ns = ratio(ledger_.admit_ns, static_cast<double>(syns_));
    l.sim_run_ns_per_req = ratio(ledger_.run_ns, reqs);

    // Isolated replays, on inputs drawn from this workload's distributions.
    // The dominant timers: service completions for one-shot connections,
    // think gaps for keep-alive ones.
    l.simcore_event_ns = replay_event_ns(
        pending_peak_,
        spec_.data_plane ? pattern_.request_gap_us : pattern_.request_cost_us,
        opt_.seed);
    setup();  // a fresh device whose reuseport group the select replay uses
    l.bpf_dispatch_ns = replay_dispatch_ns(*lb_, bitmaps_, opt_.seed);
    teardown();
    l.netsim_admit_self_ns = l.netsim_admit_ns - l.bpf_dispatch_ns;
    l.bpf_load_ms = replay_load_ms(spec_.workers);
    if (spec_.data_plane) {
      l.http_request_ns = replay_request_ns(dp_config_, spec_.workers,
                                            pattern_.request_bytes, opt_.seed);
    }

    *ledger = ledger_;
    ledger->events = static_cast<double>(c.events());
    ledger->schedules = static_cast<double>(c.filter_runs);
    ledger->forwards = static_cast<double>(c.dp.requests_forwarded);
    ledger->dispatches = static_cast<double>(c.bpf_selections + c.bpf_fallbacks);
    return l;
  }

 private:
  struct Arrival {
    SimTime at;
    TenantId tenant;
    double life_left = 1;  // share of the plan's requests still to come
  };

  void arm_arrivals() {
    hermes::sim::Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + 0xa11);
    auto poisson = [&](double rate, SimTime until, bool mid_life) {
      std::vector<Arrival> out;
      double t = 0;
      while (true) {
        t += rng.exponential(1.0 / rate);
        const SimTime at = SimTime::from_seconds_f(t);
        if (at >= until) break;
        const auto tenant = static_cast<TenantId>(rng.next_below(spec_.ports));
        out.push_back(Arrival{at, tenant, mid_life ? rng.next_double() : 1});
      }
      return out;
    };
    arrivals_ = poisson(pattern_.cps, spec_.end, false);
    if (spec_.warm_open > SimTime::zero()) {
      const double lifetime_s =
          mean_of(pattern_.requests_per_conn) *
          (mean_of(pattern_.request_gap_us) + mean_of(pattern_.request_cost_us)) /
          1e6;
      const double population = pattern_.cps * lifetime_s;
      const std::vector<Arrival> warm =
          poisson(population / spec_.warm_open.s_f(), spec_.warm_open, true);
      std::vector<Arrival> merged(arrivals_.size() + warm.size());
      std::merge(arrivals_.begin(), arrivals_.end(), warm.begin(), warm.end(),
                 merged.begin(), [](const Arrival& a, const Arrival& b) {
                   return a.at < b.at;
                 });
      arrivals_ = std::move(merged);
    }
    // Reserve the window's result storage here so the measured window's
    // allocation count is the program's alone.
    const double per_conn =
        std::min(mean_of(pattern_.requests_per_conn),
                 spec_.end.s_f() / (mean_of(pattern_.request_gap_us) / 1e6) + 1);
    latencies_.reserve(static_cast<size_t>(
        static_cast<double>(arrivals_.size()) * per_conn * 1.2));
    slice_ms_.reserve(static_cast<size_t>(spec_.end.ns() / spec_.slice.ns()) +
                      1);
    cpu_sds_.reserve(
        static_cast<size_t>(spec_.end.ns() / spec_.cpu_sample.ns()) + 1);
  }

  void reset_trace() {
    ledger_ = Ledger{};
    syns_ = 0;
    pending_peak_ = 0;
    live_peak_ = 0;
    bitmaps_.clear();
    bitmaps_.reserve(static_cast<size_t>(spec_.end.ns() / spec_.slice.ns()) +
                     1);
  }

  template <bool kTraced>
  void drive() {
    sim::LbDevice& lb = *lb_;
    sim::EventQueue& eq = lb.eq();
    SimTime next_slice = spec_.slice;
    auto slice_t0 = Clock::now();

    auto run_to = [&](SimTime t) {
      if constexpr (kTraced) {
        const auto s = Clock::now();
        eq.run_until(t);
        ledger_.run_ns += static_cast<double>(ns_between(s, Clock::now()));
      } else {
        eq.run_until(t);
      }
    };
    // Runs through every slice boundary at or before `t`.
    auto cross_slices = [&](SimTime t) {
      while (next_slice <= t) {
        run_to(next_slice);
        const auto now = Clock::now();
        slice_ms_.push_back(seconds_between(slice_t0, now) * 1e3);
        slice_t0 = now;
        if (next_slice >= spec_.warmup &&
            (next_slice - spec_.warmup).ns() % spec_.cpu_sample.ns() == 0) {
          const double sd = lb.sample_now().cpu_sd;
          if (next_slice > spec_.warmup) cpu_sds_.push_back(sd);
        }
        if constexpr (kTraced) {
          pending_peak_ = std::max<uint64_t>(pending_peak_, eq.pending());
          live_peak_ = std::max(live_peak_, lb.netstack().live_connections());
          bitmaps_.push_back(lb.hermes()->kernel_bitmap(0));
        }
        next_slice += spec_.slice;
      }
    };

    for (const Arrival& a : arrivals_) {
      cross_slices(a.at);
      run_to(a.at);
      sim::LbDevice::ConnPlan plan = lb.plan_from_pattern(pattern_, a.tenant);
      if (a.life_left < 1) {
        plan.remaining = 1 + static_cast<int>(a.life_left * plan.remaining);
      }
      if constexpr (kTraced) {
        const auto s = Clock::now();
        lb.open_connection(a.tenant, std::move(plan));
        ledger_.admit_ns += static_cast<double>(ns_between(s, Clock::now()));
        ++syns_;
      } else {
        lb.open_connection(a.tenant, std::move(plan));
      }
    }
    cross_slices(spec_.end);
  }

  Options opt_;
  DeviceSpec spec_;
  sim::TrafficPattern pattern_;
  sim::DataPlane::Config dp_config_{};
  std::unique_ptr<sim::LbDevice> lb_;
  std::vector<Arrival> arrivals_;
  std::vector<double> latencies_;  // ns, completions inside the window
  std::vector<double> slice_ms_;
  std::vector<double> cpu_sds_;

  // Traced repetition state.
  Ledger ledger_;
  uint64_t syns_ = 0;
  uint64_t pending_peak_ = 0;
  uint64_t live_peak_ = 0;
  std::vector<uint64_t> bitmaps_;
  Counts traced_counts_;
  AllocCount traced_allocs_;
};

}  // namespace

std::unique_ptr<Workload> make_device_workload(const Options& opt) {
  return std::make_unique<DeviceWorkload>(opt);
}

}  // namespace perfbench
