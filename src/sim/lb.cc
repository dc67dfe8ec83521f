#include "sim/lb.h"

#include <bit>
#include <cmath>

#include "util/check.h"

namespace hermes::sim {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool same_bits(const DistSpec& x, const DistSpec& y) {
  return x.kind == y.kind && same_bits(x.a, y.a) && same_bits(x.b, y.b) &&
         same_bits(x.c, y.c);
}

netsim::NetStack::Config netstack_config(const LbDevice::Config& cfg) {
  netsim::NetStack::Config nc;
  nc.mode = cfg.mode;
  nc.num_workers = cfg.num_workers;
  nc.backlog = cfg.backlog;
  return nc;
}

}  // namespace

LbDevice::LbDevice(Config cfg)
    : cfg_(cfg), rng_(cfg.seed), ns_(netstack_config(cfg)) {
  if (cfg_.observability) {
    obs_ = std::make_unique<obs::Observability>(cfg_.num_workers);
    obs_req_latency_ = &obs_->registry.histogram("request.latency_ns",
                                                 cfg_.num_workers, 3);
    ns_.set_obs(obs_.get());
  }
  if (cfg_.data_plane.enabled) {
    dp_ = std::make_unique<DataPlane>(cfg_.data_plane, cfg_.num_workers,
                                      obs_.get());
  }
  if (cfg_.rate_limit.rate_per_sec > 0) limiter_.emplace(cfg_.rate_limit);
  // Ports first (sockets exist before workers attach).
  for (uint32_t p = 0; p < cfg_.num_ports; ++p) {
    ns_.add_port(static_cast<PortId>(cfg_.first_port + p));
  }

  if (cfg_.mode == netsim::DispatchMode::HermesMode) {
    core::HermesRuntime::Options opts;
    opts.config = cfg_.hermes;
    opts.num_workers = cfg_.num_workers;
    opts.faults = cfg_.faults;
    opts.obs = obs_.get();
    opts.policy = cfg_.policy;
    if (!cfg_.worker_speeds.empty()) {
      // Capacity weights for the weighted policy: proportional to core
      // speed, quantized to keep the 64-slot lottery table faithful.
      opts.worker_weights.reserve(cfg_.num_workers);
      for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
        const double speed =
            w < cfg_.worker_speeds.size() ? cfg_.worker_speeds[w] : 1.0;
        opts.worker_weights.push_back(static_cast<uint32_t>(
            std::max<int64_t>(1, std::llround(speed * 4.0))));
      }
    }
    hermes_.emplace(opts);
    hermes_->vm().set_time_fn(
        [this] { return static_cast<uint64_t>(eq_.now().ns()); });
    degradation_.emplace(cfg_.hermes);
    // Stage-3 attachment per port.
    for (uint32_t p = 0; p < cfg_.num_ports; ++p) {
      const auto port = static_cast<PortId>(cfg_.first_port + p);
      std::vector<uint64_t> cookies;
      cookies.reserve(cfg_.num_workers);
      for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
        cookies.push_back(ns_.worker_socket(port, w)->cookie());
      }
      attachments_.push_back(hermes_->attach_port(cookies));
      ns_.group(port)->attach_program(&hermes_->vm(),
                                      attachments_.back().program.get());
      if (obs_) {
        ns_.group(port)->set_policy_counter(
            obs_->metrics.policy_dispatches[static_cast<size_t>(
                hermes_->policy_kind())]);
      }
    }
  }

  Worker::Host host;
  host.on_accepted = [this](Worker& w, netsim::Connection c) {
    on_accepted(w, c);
  };
  host.on_request_done = [this](Worker& w, const Request& r) {
    on_request_done(w, r);
  };

  const bool user_dispatcher = cfg_.mode == netsim::DispatchMode::UserDispatcher;
  for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
    Worker::Config wc = cfg_.worker;
    wc.id = w;
    if (w < cfg_.worker_speeds.size()) wc.speed = cfg_.worker_speeds[w];
    workers_.push_back(std::make_unique<Worker>(
        wc, eq_, ns_, host, hermes_ ? &*hermes_ : nullptr));
  }

  if (netsim::uses_per_worker_sockets(cfg_.mode)) {
    ns_.set_socket_ready_fn([this](WorkerId w, netsim::ListeningSocket& s) {
      workers_[w]->on_socket_ready(s);
    });
  } else if (user_dispatcher) {
    // §2.2 baseline: worker 0's core hosts the dispatcher; it is the sole
    // waiter on the shared sockets and forwards accepted connections to
    // workers 1..N-1 round-robin.
    HERMES_CHECK(cfg_.num_workers >= 2);
    dispatcher_.emplace(
        Dispatcher::Config{}, eq_, ns_, cfg_.num_workers - 1,
        [this](WorkerId target, netsim::Connection conn) {
          workers_[target]->adopt_connection(conn);
        });
  } else {
    // Registration order defines the LIFO preference: worker 0 first, so
    // the highest-id worker sits at every wait-queue head — matching the
    // "most recently added via epoll_ctl" behaviour.
    for (auto& w : workers_) ns_.register_waiter(w.get());
  }

  for (auto& w : workers_) {
    w->attach_sockets();
    w->start();
  }
  if (dispatcher_) {
    dispatcher_->attach_sockets();
    dispatcher_->start();
  }
  last_busy_.assign(cfg_.num_workers, SimTime::zero());
}

netsim::ConnId LbDevice::open_connection(TenantId tenant, ConnPlan plan) {
  return open_connection_attempt(tenant, std::move(plan), eq_.now(),
                                 /*attempt=*/0);
}

LbDevice::Admission LbDevice::admit(TenantId tenant,
                                    const netsim::FourTuple& tuple,
                                    const ConnPlan& plan, SimTime syn_time) {
  if (limiter_ && !limiter_->admit(tuple.saddr, eq_.now())) {
    // Policy refusal at admission: no backlog drop, no SYN retry (the
    // client sees an RST, not a timeout).
    ++totals_.rate_limited;
    if (obs_) obs_->metrics.ratelimit_drops->inc(0);
    return {};
  }
  const netsim::Connection conn =
      ns_.on_connection_request(tuple, tenant, eq_.now());
  if (!conn) {
    ++totals_.conns_dropped;
    return {.dropped = true};
  }
  ++totals_.conns_opened;
  add_conn(conn, plan, syn_time);
  return {.id = conn.id()};
}

netsim::ConnId LbDevice::open_connection_attempt(TenantId tenant,
                                                 ConnPlan plan,
                                                 SimTime first_syn,
                                                 int attempt) {
  const Admission a =
      admit(tenant, draw_client_tuple(rng_, port_of(tenant)), plan, first_syn);
  if (a.dropped && attempt < cfg_.syn_retries) {
    // TCP-style retransmission with exponential backoff; the retry is a
    // new SYN with a new tuple. The latency clock stays at the original.
    const SimTime backoff = cfg_.syn_retry_timeout * (1ll << attempt);
    ++totals_.syn_retransmits;
    eq_.schedule_after(backoff, [this, tenant, plan = std::move(plan),
                                 first_syn, attempt]() mutable {
      open_connection_attempt(tenant, std::move(plan), first_syn,
                              attempt + 1);
    });
  }
  return a.id;
}

void LbDevice::add_conn(netsim::Connection conn, const ConnPlan& plan,
                        SimTime syn_time) {
  LiveConn& lc = conns_.emplace(conn.id());
  lc.conn = conn;
  lc.syn_time = syn_time;
  lc.remaining = plan.remaining;
  lc.shape = acquire_shape(plan);
}

void LbDevice::erase_conn(netsim::ConnId id, const LiveConn& lc) {
  const uint32_t shape = lc.shape;
  conns_.erase(id);
  if (--shapes_[shape].live == 0) {
    free_shapes_.push_back(shape);
    if (last_shape_ == shape) last_shape_ = kNoShape;
  }
}

uint32_t LbDevice::acquire_shape(const ConnPlan& plan) {
  if (last_shape_ != kNoShape) {
    PlanShape& s = shapes_[last_shape_];
    if (same_bits(s.cost_us, plan.cost_us) &&
        same_bits(s.bytes, plan.bytes) && same_bits(s.gap_us, plan.gap_us) &&
        same_bits(s.poison_cost_us, plan.poison_cost_us) &&
        same_bits(s.poison_fraction, plan.poison_fraction) &&
        s.is_probe == plan.is_probe) {
      ++s.live;
      return last_shape_;
    }
  }
  if (free_shapes_.empty()) {
    last_shape_ = static_cast<uint32_t>(shapes_.size());
    shapes_.emplace_back();
  } else {
    last_shape_ = free_shapes_.back();
    free_shapes_.pop_back();
  }
  shapes_[last_shape_] = PlanShape{plan.cost_us,         plan.bytes,
                                   plan.gap_us,          plan.poison_cost_us,
                                   plan.poison_fraction, plan.is_probe,
                                   /*live=*/1};
  return last_shape_;
}

LbDevice::ConnPlan LbDevice::plan_of(const LiveConn& lc) const {
  const PlanShape& s = shapes_[lc.shape];
  ConnPlan plan;
  plan.remaining = lc.remaining;
  plan.cost_us = s.cost_us;
  plan.bytes = s.bytes;
  plan.gap_us = s.gap_us;
  plan.poison_fraction = s.poison_fraction;
  plan.poison_cost_us = s.poison_cost_us;
  plan.is_probe = s.is_probe;
  return plan;
}

LbDevice::ConnPlan LbDevice::plan_from_pattern(const TrafficPattern& p,
                                               TenantId /*tenant*/) {
  ConnPlan plan;
  plan.cost_us = p.request_cost_us;
  plan.bytes = p.request_bytes;
  plan.gap_us = p.request_gap_us;
  plan.poison_fraction = p.poison_fraction;
  plan.poison_cost_us = p.poison_cost_us;
  if (p.websocket_fraction > 0 && rng_.bernoulli(p.websocket_fraction)) {
    plan.remaining = 1;
    plan.cost_us = p.websocket_cost_us;
  } else {
    plan.remaining =
        std::max(1, static_cast<int>(p.requests_per_conn.sample(rng_)));
  }
  return plan;
}

void LbDevice::start_pattern(const TrafficPattern& pattern,
                             TenantId first_tenant, uint32_t tenant_span,
                             SimTime until) {
  HERMES_CHECK(pattern.cps > 0 && tenant_span > 0);
  // Poisson arrivals: schedule one arrival; each arrival re-arms a copy of
  // itself (Rearming — see event_queue.h for why not a shared_ptr closure).
  Rearming arrival(
      [this, pattern, first_tenant, tenant_span, until](auto& self) {
        if (eq_.now() > until) return;
        const TenantId tenant =
            first_tenant + static_cast<TenantId>(rng_.next_below(tenant_span));
        open_connection(tenant, plan_from_pattern(pattern, tenant));
        const double gap_s = rng_.exponential(1.0 / pattern.cps);
        eq_.schedule_after(SimTime::from_seconds_f(gap_s), self);
      });
  eq_.schedule_after(
      SimTime::from_seconds_f(rng_.exponential(1.0 / pattern.cps)), arrival);
}

void LbDevice::start_tenant_mix(const TenantModel& tm, double total_cps,
                                uint32_t workers_scale, double load,
                                SimTime until) {
  // One Poisson process; each arrival draws a tenant by Zipf rank, and the
  // tenant's case decides the connection's plan.
  auto zipf = std::make_shared<ZipfSampler>(tm.num_tenants, tm.zipf_skew);
  auto patterns = std::make_shared<std::vector<TrafficPattern>>();
  for (int c = 1; c <= 4; ++c) {
    patterns->push_back(case_pattern(c, workers_scale, load));
  }
  const double cps = total_cps * load;
  Rearming arrival([this, tm, zipf, patterns, cps, until](auto& self) {
    if (eq_.now() > until) return;
    const TenantId tenant = zipf->sample(rng_);
    const TrafficPattern& p = (*patterns)[tm.tenant_case[tenant] - 1];
    open_connection(tenant, plan_from_pattern(p, tenant));
    eq_.schedule_after(SimTime::from_seconds_f(rng_.exponential(1.0 / cps)),
                       self);
  });
  eq_.schedule_after(SimTime::from_seconds_f(rng_.exponential(1.0 / cps)),
                     arrival);
}

void LbDevice::burst_all_connections(const DistSpec& cost_us, int k) {
  conns_.for_each([&](netsim::ConnId, LiveConn& lc) {
    // A client that already sent Connection: close sends nothing more.
    if (lc.conn.state() != netsim::ConnState::Accepted || lc.close_sent) {
      return;
    }
    lc.remaining += k;
    for (int i = 0; i < k; ++i) {
      Request req = make_request(lc, eq_.now());
      req.cost = SimTime::from_seconds_f(cost_us.sample(rng_) / 1e6);
      ++totals_.requests_generated;
      workers_[lc.conn.owner()]->deliver_request(req);
    }
  });
}

uint64_t LbDevice::inject_core_probe(WorkerId w, SimTime cost) {
  Request req;
  req.id = next_req_++;
  req.conn = next_probe_id_++;
  req.arrival = eq_.now();
  req.cost = cost;
  req.bytes = 64;
  ++totals_.requests_generated;
  workers_[w]->deliver_request(req);
  return req.conn;
}

uint64_t LbDevice::close_fraction(double fraction) {
  if (fraction <= 0) return 0;
  std::vector<netsim::ConnId> victims;
  conns_.for_each([&](netsim::ConnId id, const LiveConn& lc) {
    if (lc.conn.state() == netsim::ConnState::Accepted &&
        rng_.bernoulli(fraction)) {
      victims.push_back(id);
    }
  });
  for (netsim::ConnId id : victims) close_conn(id);
  return victims.size();
}

void LbDevice::run_degradation_sweep() {
  if (!hermes_ || !degradation_) return;
  for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
    if (!degradation_->should_degrade(hermes_->wst(), w, eq_.now())) continue;
    // Collect the hung worker's connections.
    std::vector<uint64_t> ids;
    conns_.for_each([&](netsim::ConnId id, const LiveConn& lc) {
      if (lc.conn.owner() == w &&
          lc.conn.state() == netsim::ConnState::Accepted) {
        ids.push_back(id);
      }
    });
    const auto resets = degradation_->pick_resets(ids, degradation_salt_++);
    degradation_->stats().degradations += resets.empty() ? 0 : 1;
    for (uint64_t id : resets) {
      // RST: the client reconnects immediately; remaining requests carry
      // over to the new connection, which the (healthy-workers) bitmap
      // dispatch will place elsewhere.
      const LiveConn* lc = conns_.find(id);
      if (lc == nullptr) continue;
      ConnPlan plan = plan_of(*lc);
      const TenantId tenant = lc->conn.tenant();
      ++totals_.degradation_resets;
      degradation_->stats().resets++;
      close_conn(id);
      if (plan.remaining > 0) open_connection(tenant, std::move(plan));
    }
  }
}

LbDevice::Sample LbDevice::sample_now() {
  Sample s;
  s.at = eq_.now();
  const SimTime window = eq_.now() - last_sample_at_;
  RunningStat cpu, conn;
  double cmin = 1e18, cmax = -1e18, csum = 0;
  for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
    const SimTime busy = workers_[w]->busy_time();
    double util = 0;
    if (window.ns() > 0) {
      util = static_cast<double>((busy - last_busy_[w]).ns()) /
             static_cast<double>(window.ns());
      util = std::min(util, 1.0);
    }
    last_busy_[w] = busy;
    cpu.add(util);
    conn.add(static_cast<double>(workers_[w]->live_connections()));
    cmin = std::min(cmin, util);
    cmax = std::max(cmax, util);
    csum += util;
  }
  last_sample_at_ = eq_.now();
  s.cpu_sd = cpu.stddev();
  s.conn_sd = conn.stddev();
  s.cpu_min = cmin;
  s.cpu_max = cmax;
  s.cpu_avg = csum / cfg_.num_workers;
  s.total_utilization = s.cpu_avg;
  samples_.push_back(s);
  return s;
}

void LbDevice::start_sampling(SimTime period, SimTime until) {
  Rearming tick([this, period, until](auto& self) {
    sample_now();
    if (eq_.now() + period <= until) {
      eq_.schedule_after(period, self);
    }
  });
  eq_.schedule_after(period, tick);
}

Request LbDevice::make_request(LiveConn& lc, SimTime arrival) {
  Request req;
  req.id = next_req_++;
  req.conn = lc.conn.id();
  req.tenant = lc.conn.tenant();
  req.arrival = arrival;
  const PlanShape& plan = shapes_[lc.shape];
  if (plan.poison_fraction > 0 && rng_.bernoulli(plan.poison_fraction)) {
    req.cost = SimTime::from_seconds_f(plan.poison_cost_us.sample(rng_) / 1e6);
    req.is_poison = true;
  } else {
    req.cost = SimTime::from_seconds_f(plan.cost_us.sample(rng_) / 1e6);
  }
  req.bytes = static_cast<uint64_t>(plan.bytes.sample(rng_));
  lc.close_sent = lc.remaining <= 1;
  if (dp_) {
    // Byte-level proxy path: synthesize + parse + forward the request's
    // actual wire bytes; a backend-pool miss charges the handshake.
    req.cost = req.cost + dp_->on_request(lc.conn.owner(), req,
                                          lc.close_sent, eq_.now());
  }
  return req;
}

void LbDevice::on_accepted(Worker& w, netsim::Connection conn) {
  LiveConn* lc = conns_.find(conn.id());
  if (lc == nullptr) return;  // closed while queued (shouldn't happen)
  if (!lc->first_delivered) {
    lc->first_delivered = true;
    // The client's first request was already on the wire: its latency clock
    // started at SYN time, so accept-queue waiting counts (this is what
    // punishes reuseport's dispatch-to-hung-worker behaviour).
    Request req = make_request(*lc, lc->syn_time);
    ++totals_.requests_generated;
    w.deliver_request(req);
  }
}

void LbDevice::on_request_done(Worker& w, const Request& req) {
  ++totals_.requests_completed;
  const SimTime latency = eq_.now() - req.arrival;
  latency_.record(latency);
  window_latency_.record(latency);
  if (obs_) {
    obs_req_latency_->record(w.id(), static_cast<uint64_t>(latency.ns()));
    obs_->traces.write(w.id(), obs::TraceType::RequestDone, eq_.now(),
                       req.tenant, req.conn,
                       static_cast<uint64_t>(latency.ns()));
  }
  if (request_done_) request_done_(req.tenant, latency);

  LiveConn* lc = conns_.find(req.conn);
  // A probe rides a probe-plan connection or is a synthetic per-core
  // probe, whose id names no connection.
  const bool probe = lc != nullptr ? shapes_[lc->shape].is_probe
                                   : req.conn >= kProbeConnBase;
  if (probe && latency > SimTime::millis(200)) ++delayed_probes_;
  if (lc == nullptr) {
    // Reset while in flight (degradation, close_fraction): nobody to
    // answer, but the request's backend connection must still return.
    if (!probe && dp_) dp_->on_response(w.id(), req, eq_.now());
    return;
  }
  if (dp_) dp_->on_response(w.id(), req, eq_.now());
  lc->remaining -= 1;
  if (lc->remaining <= 0) {
    w.note_conn_closed();
    const netsim::Connection conn = lc->conn;
    if (dp_) dp_->on_conn_close(req.conn);
    erase_conn(req.conn, *lc);
    ns_.close(conn);
    return;
  }
  // Schedule the next request on this connection after the think gap.
  const SimTime gap =
      SimTime::from_seconds_f(shapes_[lc->shape].gap_us.sample(rng_) / 1e6);
  const netsim::ConnId id = req.conn;
  eq_.schedule_after(gap, [this, id] {
    LiveConn* c = conns_.find(id);
    if (c == nullptr) return;  // reset by degradation meanwhile
    if (c->conn.state() != netsim::ConnState::Accepted) return;
    Request next = make_request(*c, eq_.now());
    ++totals_.requests_generated;
    workers_[c->conn.owner()]->deliver_request(next);
  });
}

void LbDevice::close_conn(netsim::ConnId id) {
  const LiveConn* lc = conns_.find(id);
  if (lc == nullptr) return;
  const netsim::Connection conn = lc->conn;
  // Closing a still-queued connection would leave a stale view in its
  // accept queue; callers only shed Accepted connections.
  HERMES_CHECK(conn.state() == netsim::ConnState::Accepted);
  if (conn.owner() != kInvalidWorker) {
    workers_[conn.owner()]->note_conn_closed();
  }
  if (dp_) dp_->on_conn_close(id);
  erase_conn(id, *lc);
  ns_.close(conn);
}

}  // namespace hermes::sim
