// LbDevice: one simulated L7 load balancer — N workers pinned to cores,
// M tenant ports, a netsim kernel beneath, and optionally the full Hermes
// runtime wired into it. The benches and examples drive this type.
//
// Every variant a test compares against is a Config field: the policy
// (Config::policy), the forwarding mode (data_plane.zero_copy). Stage 2
// has one path; its oracle is a pure function tests call
// (Scheduler::schedule_reference_with_order). The device reads no
// environment variable.
//
// Every SYN, from the device's own clients or routed by a Fleet's front
// tier, goes through one admission step (admit): rate limit, the
// netstack's SYN entry (reuseport select runs the dispatch program once),
// drop accounting, then the connection's row. Only the device's own
// clients retry a backlog drop, with a newly drawn tuple.
//
// Per-connection workload state (remaining requests, original SYN time)
// lives in a netsim::ConnTable keyed by the connection's id, i.e. by its
// slab slot; its tenant is the slab's, set at admission. The rest of a
// connection's ConnPlan — its four DistSpecs,
// poison_fraction and is_probe — is a *plan shape* in a per-device table
// that rows name by a 32-bit index. An opened plan reuses the most recently
// used shape when every field is bitwise equal to it (so a NaN still
// shares) and otherwise takes a free slot: no hashing, no search. A slot is
// freed when the last row naming it is erased, so the table never holds
// more shapes than there are live connections (trace replay, where every
// plan differs) and usually holds one per traffic pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/degradation.h"
#include "core/hermes.h"
#include "core/rate_limit.h"
#include "netsim/conn_table.h"
#include "netsim/netstack.h"
#include "sim/data_plane.h"
#include "obs/observability.h"
#include "simcore/event_queue.h"
#include "simcore/histogram.h"
#include "simcore/rng.h"
#include "sim/request.h"
#include "sim/dispatcher.h"
#include "sim/worker.h"
#include "sim/workload.h"

namespace hermes::sim {

// A client SYN's four-tuple: a random source address and ephemeral port
// towards the VIP's `dport`. The draw order (saddr, then sport) is part
// of every seeded run's identity.
inline netsim::FourTuple draw_client_tuple(Rng& rng, PortId dport) {
  netsim::FourTuple t;
  t.saddr = static_cast<uint32_t>(rng.next_u64());
  t.daddr = 0x0a000001;
  t.sport = static_cast<uint16_t>(1024 + rng.next_below(60000));
  t.dport = dport;
  return t;
}

class LbDevice {
 public:
  struct Config {
    netsim::DispatchMode mode = netsim::DispatchMode::HermesMode;
    uint32_t num_workers = 8;
    uint32_t num_ports = 16;
    PortId first_port = 1024;
    size_t backlog = 1024;
    Worker::Config worker{};           // id is overwritten per worker
    core::HermesConfig hermes{};
    // Scheduling policy for the generated dispatch program (core/policy.h).
    // Defaults to the paper's cascade.
    core::PolicyKind policy = core::PolicyKind::Cascade;
    // Heterogeneous fleet: per-worker relative core speeds (empty = all
    // 1.0). Shorter than num_workers pads with 1.0. Also feeds the
    // weighted policy's capacity weights (weight = round(speed * 4)).
    std::vector<double> worker_speeds;
    uint64_t seed = 1;
    // Client SYN retransmission on backlog overflow: 0 = drops are final
    // (default; keeps calibrated benches stable). With retries, dropped
    // SYNs come back after an exponentially backed-off timeout — the
    // retry amplification that deepens overload collapse.
    int syn_retries = 0;
    SimTime syn_retry_timeout = SimTime::seconds(1);
    // Fault-injection hooks for the embedded Hermes runtime (torture tests;
    // not owned, may be null). See core/fault_injection.h.
    core::FaultInjector* faults = nullptr;
    // Observability: metrics registry + per-worker trace rings across the
    // dispatch pipeline (src/obs). On by default — Table 5's claim is that
    // the instrumentation is cheap enough to leave on.
    bool observability = true;
    // L7 byte-level data plane (sim/data_plane.h). Off by default: the
    // abstract cost-model path stays byte-identical for existing benches.
    DataPlane::Config data_plane{};
    // Per-client token-bucket admission control; rate_per_sec==0 disables.
    core::ClientRateLimiter::Config rate_limit{};
  };

  explicit LbDevice(Config cfg);

  const Config& config() const { return cfg_; }
  EventQueue& eq() { return eq_; }
  Rng& rng() { return rng_; }
  netsim::NetStack& netstack() { return ns_; }
  core::HermesRuntime* hermes() { return hermes_ ? &*hermes_ : nullptr; }
  // The device's observability layer (null when Config::observability off).
  obs::Observability* obs() { return obs_.get(); }
  Dispatcher* dispatcher() { return dispatcher_ ? &*dispatcher_ : nullptr; }
  Worker& worker(WorkerId w) { return *workers_[w]; }
  uint32_t num_workers() const { return cfg_.num_workers; }
  // The byte-level L7 data plane (null when Config::data_plane.enabled off).
  DataPlane* data_plane() { return dp_.get(); }
  const DataPlane* data_plane() const { return dp_.get(); }
  core::ClientRateLimiter* rate_limiter() {
    return limiter_ ? &*limiter_ : nullptr;
  }

  // ---- workload interface ----------------------------------------------
  // Per-connection request plan, sampled lazily as requests complete.
  struct ConnPlan {
    int remaining = 1;
    DistSpec cost_us = DistSpec::constant(200);
    DistSpec bytes = DistSpec::constant(600);
    DistSpec gap_us = DistSpec::exponential(10'000);
    double poison_fraction = 0;
    DistSpec poison_cost_us = DistSpec::constant(500'000);
    bool is_probe = false;
  };

  // Open a connection for `tenant` (port chosen by tenant id). Returns the
  // connection id, or 0 if the SYN was dropped (backlog overflow; with
  // syn_retries configured a retransmission is scheduled automatically,
  // and the eventual first request's latency clock still starts at the
  // ORIGINAL SYN, as the client experiences it).
  netsim::ConnId open_connection(TenantId tenant, ConnPlan plan);

  // Build a plan from a TrafficPattern (samples per-conn request count).
  // `tenant` is ignored: a connection's tenant is the one it is opened
  // under, not part of its plan.
  ConnPlan plan_from_pattern(const TrafficPattern& p, TenantId tenant);

  // Start a Poisson connection-arrival process for `pattern` running until
  // `until`. Multiple generators may run concurrently (multi-tenant mixes).
  void start_pattern(const TrafficPattern& pattern, TenantId first_tenant,
                     uint32_t tenant_span, SimTime until);

  // Zipf-skewed multi-tenant mix (Fig. 13 / Table 2 style).
  void start_tenant_mix(const TenantModel& tm, double total_cps,
                        uint32_t workers_scale, double load, SimTime until);

  // Deliver `k` extra requests on every live connection right now — the
  // synchronized surge of Fig. 3.
  void burst_all_connections(const DistSpec& cost_us, int k);

  // Inject a per-core health probe directly onto worker `w`'s event queue
  // (models the production prober whose SYN/handshake is served by the
  // RSS-selected core: if that core is buried, the probe is late no matter
  // which dispatch mode is active). Returns the synthetic probe id.
  uint64_t inject_core_probe(WorkerId w, SimTime cost = SimTime::micros(50));

  // Close roughly `fraction` of live connections (client churn / age-out
  // model for canary-drain experiments). Returns how many were closed.
  uint64_t close_fraction(double fraction);

  // Proactive degradation sweep (Appendix C): reset a fraction of a hung
  // worker's connections; clients immediately reconnect (new SYN), letting
  // the closed loop move them to healthy workers.
  void run_degradation_sweep();

  // ---- metrics -----------------------------------------------------------
  struct Totals {
    uint64_t conns_opened = 0;
    uint64_t conns_dropped = 0;
    uint64_t requests_completed = 0;
    uint64_t requests_generated = 0;
    uint64_t degradation_resets = 0;
    uint64_t syn_retransmits = 0;
    uint64_t rate_limited = 0;  // refused at admission (not backlog drops)
  };
  const Totals& totals() const { return totals_; }
  // Per-request observer (tenant, latency) — per-tenant SLO tooling.
  using RequestDoneFn = std::function<void(TenantId, SimTime)>;
  void set_request_done_fn(RequestDoneFn fn) { request_done_ = std::move(fn); }
  Histogram& latency() { return latency_; }        // all request latencies
  // Latency histogram since the last take_window_latency() call (timeline
  // plots like Fig. 3).
  Histogram take_window_latency() {
    Histogram out = std::move(window_latency_);
    window_latency_ = Histogram{5};
    return out;
  }
  uint64_t delayed_probes() const { return delayed_probes_; }
  uint64_t live_connections() const { return conns_.size(); }
  // Plan shapes some live connection uses (see the file comment).
  size_t live_plan_shapes() const {
    return shapes_.size() - free_shapes_.size();
  }

  // Periodic sampling for Fig. 13 / Table 2: per-sample SD of worker CPU
  // utilization and of per-worker connection counts.
  struct Sample {
    SimTime at{};
    double cpu_sd = 0;          // SD of per-worker utilization in [0,1]
    double conn_sd = 0;         // SD of per-worker live connections
    double cpu_max = 0, cpu_min = 0, cpu_avg = 0;
    double total_utilization = 0;
  };
  // Samples utilization over the window since the previous call.
  Sample sample_now();
  const std::vector<Sample>& samples() const { return samples_; }
  // Schedule sampling every `period` until `until`.
  void start_sampling(SimTime period, SimTime until);

  double throughput_krps(SimTime duration) const {
    return static_cast<double>(totals_.requests_completed) /
           duration.s_f() / 1000.0;
  }

 private:
  // A ConnPlan without its remaining count, shared by rows.
  struct PlanShape {
    DistSpec cost_us;
    DistSpec bytes;
    DistSpec gap_us;
    DistSpec poison_cost_us;
    double poison_fraction = 0;
    bool is_probe = false;
    uint32_t live = 0;  // rows naming this shape; 0 = free slot
  };

  struct LiveConn {
    netsim::Connection conn{};
    SimTime syn_time{};   // ORIGINAL SYN (first attempt)
    int remaining = 1;
    uint32_t shape = 0;   // index into shapes_
    bool first_delivered = false;
    // The request carrying Connection: close is out: the client sends
    // nothing more on this connection.
    bool close_sent = false;
  };

  friend class Fleet;  // its front tier admits the tuples it routes

  // Outcome of one SYN through admit().
  struct Admission {
    netsim::ConnId id = 0;  // 0 unless established
    bool dropped = false;   // backlog overflow (a refusal is not a drop)
  };
  // The device's one SYN admission step, for its own clients and for the
  // fleet front tier (which must admit exactly the tuple it routed): the
  // rate-limit check, the netstack's SYN entry, drop accounting, and the
  // connection's row, whose latency clock starts at `syn_time`.
  Admission admit(TenantId tenant, const netsim::FourTuple& tuple,
                  const ConnPlan& plan, SimTime syn_time);
  netsim::ConnId open_connection_attempt(TenantId tenant, ConnPlan plan,
                                         SimTime first_syn, int attempt);
  // Fills `conn`'s row from `plan`, taking a reference on its shape.
  void add_conn(netsim::Connection conn, const ConnPlan& plan,
                SimTime syn_time);
  // Empties `id`'s row and drops its reference on its shape.
  void erase_conn(netsim::ConnId id, const LiveConn& lc);
  uint32_t acquire_shape(const ConnPlan& plan);
  ConnPlan plan_of(const LiveConn& lc) const;

  PortId port_of(TenantId tenant) const {
    return static_cast<PortId>(cfg_.first_port + tenant % cfg_.num_ports);
  }
  void on_accepted(Worker& w, netsim::Connection conn);
  void on_request_done(Worker& w, const Request& req);
  void close_conn(netsim::ConnId id);
  Request make_request(LiveConn& lc, SimTime arrival);

  Config cfg_;
  EventQueue eq_;
  Rng rng_;
  std::unique_ptr<obs::Observability> obs_;
  obs::LogHistogram* obs_req_latency_ = nullptr;  // request.latency_ns
  netsim::NetStack ns_;
  std::optional<core::HermesRuntime> hermes_;
  std::optional<core::DegradationPolicy> degradation_;
  std::unique_ptr<DataPlane> dp_;
  std::optional<core::ClientRateLimiter> limiter_;
  std::optional<Dispatcher> dispatcher_;
  std::vector<core::PortAttachment> attachments_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Probe ids name no slab row, so they miss conns_ (see conn_table.h).
  static constexpr netsim::ConnId kProbeConnBase = 1ull << 62;
  netsim::ConnTable<LiveConn> conns_;
  static constexpr uint32_t kNoShape = UINT32_MAX;
  std::vector<PlanShape> shapes_;
  std::vector<uint32_t> free_shapes_;  // slots with live == 0
  uint32_t last_shape_ = kNoShape;     // most recently acquired shape
  RequestId next_req_ = 1;
  netsim::ConnId next_probe_id_ = kProbeConnBase;
  uint64_t degradation_salt_ = 0;

  Totals totals_;
  Histogram latency_{5};
  Histogram window_latency_{5};
  uint64_t delayed_probes_ = 0;
  RequestDoneFn request_done_;

  std::vector<Sample> samples_;
  std::vector<SimTime> last_busy_;
  SimTime last_sample_at_{};
};

}  // namespace hermes::sim
