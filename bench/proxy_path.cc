// L7 proxy data-plane microbench: ns/request-forwarded and bytes-memcpy'd
// per request across {short-lived, keep-alive, pipelined} connections ×
// {zero-copy, copy-oracle} forwarding, plus a sim-leg rerun of the Fig. 13
// load-spread measurement under a keep-alive mix with the byte-level data
// plane enabled.
//
// Part A (micro) drives http::ConnState directly. Client wire bytes and
// the backend response chain are pre-generated OUTSIDE the timed region
// (they model the NIC and the backend, not the proxy); the timed loop is
// parse + forward + egress only. An untimed verification pass first runs
// both modes and chains an FNV-1a hash over every forwarded byte in both
// directions: the streams must be bit-identical between zero-copy and the
// copy oracle, and the keep-alive zero-copy path must beat the oracle by
// >= 2x wall-clock — both enforced with a hard exit(1), not just gated.
//
// Wall-clock metrics carry the _cost_ns / .speedup suffixes (reported,
// never gated — bench/bench_gate_check.cc). Gated deterministic metrics:
// bytes memcpy'd per request (exactly 0 in zero-copy mode), stream-match
// flags, heap allocations per request (counted by the operator-new
// override below), and the sim leg's forwarding/pool/rate-limit counts.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "http/conn_state.h"
#include "sim/data_plane.h"
#include "sim/lb.h"
#include "util/check.h"

// ---- allocation micro-counter (satellite: allocations/request) -----------
// Single-threaded bench: a plain counter is fine.
static uint64_t g_allocs = 0;

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hermes::bench {
namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

enum class Scenario { Short, KeepAlive, Pipelined };

const char* name_of(Scenario s) {
  switch (s) {
    case Scenario::Short: return "short";
    case Scenario::KeepAlive: return "keepalive";
    case Scenario::Pipelined: return "pipelined";
  }
  return "?";
}

struct ScenarioSpec {
  Scenario kind;
  int conns;
  int reqs_per_conn;
  uint64_t req_bytes;  // sim-plan request size (headers + body)
};

// Pre-generated client-side input for one connection: retained segments,
// grouped by delivery unit (per request for keep-alive; one batch for
// short/pipelined connections).
struct ConnInput {
  std::vector<std::vector<netsim::IoSlice>> deliveries;
  int expected_requests = 0;
};

std::vector<netsim::IoSlice> slice_up(const std::string& flat) {
  std::vector<netsim::IoSlice> out;
  size_t off = 0;
  while (off < flat.size()) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(netsim::IoSegment::kDefaultCapacity,
                         flat.size() - off));
    netsim::SegRef seg = netsim::IoSegment::alloc(n);
    seg->append(flat.data() + off, n);
    out.push_back(netsim::IoSlice{std::move(seg), 0, n});
    off += n;
  }
  return out;
}

// Builds every connection's wire using the same synthesizer the sim data
// plane uses, so the micro and sim legs measure the same byte shapes.
std::vector<ConnInput> build_inputs(const ScenarioSpec& spec) {
  std::vector<ConnInput> inputs;
  inputs.reserve(spec.conns);
  std::string wire;
  for (int c = 0; c < spec.conns; ++c) {
    ConnInput in;
    in.expected_requests = spec.reqs_per_conn;
    if (spec.kind == Scenario::KeepAlive) {
      for (int r = 0; r < spec.reqs_per_conn; ++r) {
        sim::Request req;
        req.id = static_cast<uint64_t>(c) * 1000 + r;
        req.tenant = static_cast<TenantId>(c % 8);
        req.bytes = spec.req_bytes;
        sim::DataPlane::synth_request_wire(req, /*last_on_conn=*/false,
                                           &wire);
        in.deliveries.push_back(slice_up(wire));
      }
    } else {
      std::string all;
      for (int r = 0; r < spec.reqs_per_conn; ++r) {
        sim::Request req;
        req.id = static_cast<uint64_t>(c) * 1000 + r;
        req.tenant = static_cast<TenantId>(c % 8);
        req.bytes = spec.req_bytes;
        const bool last = spec.kind == Scenario::Short;
        sim::DataPlane::synth_request_wire(req, last, &wire);
        all += wire;
      }
      in.deliveries.push_back(slice_up(all));
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

// The pre-encoded backend response (static-content model): encoding is
// the backend's work, identical in both modes, so it happens once here,
// through the same encoder the sim data plane uses.
netsim::IoChain build_response(uint64_t body_bytes) {
  sim::Request req;
  req.id = 7;
  req.bytes = body_bytes;
  return sim::DataPlane::encode_response(req);
}

struct ModeRun {
  uint64_t requests = 0;
  uint64_t fwd_copied = 0;      // proxy-path memcpy bytes
  uint64_t fwd_referenced = 0;  // proxy-path referenced bytes
  uint64_t wire_hash = netsim::IoChain::kFnvOffset;
  uint64_t egress_hash = netsim::IoChain::kFnvOffset;
};

// One full pass over the scenario in one mode. `verify` chains hashes
// over every forwarded byte (untimed use only).
ModeRun run_pass(const std::vector<ConnInput>& inputs,
                 const netsim::IoChain& response, bool zero_copy,
                 bool verify) {
  ModeRun out;
  http::ConnState::Config cfg;
  cfg.zero_copy = zero_copy;
  for (const ConnInput& in : inputs) {
    http::ConnState cs(cfg);
    int popped = 0;
    for (const auto& delivery : in.deliveries) {
      for (const netsim::IoSlice& s : delivery) {
        cs.on_client_data(s);  // retains the pre-built segment
      }
      while (auto r = cs.pop_ready()) {
        if (verify) {
          out.wire_hash = r->wire.fnv1a(out.wire_hash);
        }
        const netsim::IoChain ee = cs.egress(response);
        if (verify) {
          out.egress_hash = ee.fnv1a(out.egress_hash);
        }
        ++popped;
      }
    }
    HERMES_CHECK_MSG(!cs.failed(), "proxy_path: parse error in bench wire");
    HERMES_CHECK_MSG(popped == in.expected_requests,
                     "proxy_path: request count mismatch");
    out.requests += static_cast<uint64_t>(popped);
    out.fwd_copied += cs.stats().forward_bytes_copied;
    out.fwd_referenced += cs.stats().forward_bytes_referenced;
  }
  return out;
}

struct CellResultPx {
  double ns_per_req = 0;
  double allocs_per_req = 0;
  ModeRun verify;
};

CellResultPx run_cell(const std::vector<ConnInput>& inputs,
                      const netsim::IoChain& response, bool zero_copy) {
  CellResultPx res;
  res.verify = run_pass(inputs, response, zero_copy, /*verify=*/true);

  run_pass(inputs, response, zero_copy, false);  // warmup
  double best = 1e300;
  uint64_t best_allocs = UINT64_MAX;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t a0 = g_allocs;
    const double t0 = cpu_seconds();
    const ModeRun r = run_pass(inputs, response, zero_copy, false);
    const double dt = cpu_seconds() - t0;
    const uint64_t da = g_allocs - a0;
    best = std::min(best, dt);
    best_allocs = std::min(best_allocs, da);
    HERMES_CHECK(r.requests == res.verify.requests);
  }
  const double reqs = static_cast<double>(res.verify.requests);
  res.ns_per_req = best / reqs * 1e9;
  res.allocs_per_req = static_cast<double>(best_allocs) / reqs;
  return res;
}

// ---- Part B: the data plane inside the LB simulation ---------------------

sim::LbDevice::Config sim_config(netsim::DispatchMode mode, bool zero_copy) {
  sim::LbDevice::Config cfg;
  cfg.mode = mode;
  cfg.num_workers = 8;
  cfg.num_ports = 16;
  cfg.seed = 17;
  cfg.data_plane.enabled = true;
  cfg.data_plane.zero_copy = zero_copy;
  return cfg;
}

void run_keepalive_mix(sim::LbDevice& lb) {
  sim::LbDevice::ConnPlan plan;
  plan.remaining = 16;  // keep-alive: 16 requests per connection
  plan.cost_us = sim::DistSpec::constant(100);
  plan.gap_us = sim::DistSpec::constant(800);
  plan.bytes = sim::DistSpec::constant(1200);
  for (int i = 0; i < 192; ++i) {
    lb.eq().schedule_at(SimTime::micros(250 * i), [&lb, plan, i] {
      sim::LbDevice::ConnPlan p = plan;
      p.tenant = static_cast<TenantId>(i % 8);
      lb.open_connection(p.tenant, p);
    });
  }
  lb.eq().run_until(SimTime::seconds(2));
}

// Fig. 13-style per-worker CPU spread, rerun with the byte-level data
// plane active under the production tenant mix.
double keepalive_mix_cpu_sd(netsim::DispatchMode mode) {
  sim::LbDevice lb(sim_config(mode, /*zero_copy=*/true));
  const auto mixes = sim::paper_region_mixes();
  const auto tm = sim::TenantModel::from_mix(mixes[0], 16, 1.3);
  const SimTime end = SimTime::seconds(8);
  lb.start_tenant_mix(tm, 200, 8, 1.0, end);
  lb.eq().run_until(SimTime::seconds(2));  // warmup
  lb.sample_now();
  lb.start_sampling(SimTime::millis(500), end);
  lb.eq().run_until(end);

  double sd = 0, n = 0;
  for (const auto& s : lb.samples()) {
    if (s.at <= SimTime::seconds(2)) continue;
    sd += s.cpu_sd * 100;
    n += 1;
  }
  return n > 0 ? sd / n : 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  using namespace hermes;
  using namespace hermes::bench;

  BenchJson json("proxy_path", &argc, argv);
  header("proxy_path: zero-copy L7 forwarding vs the copy oracle");

  bool ok = true;

  // ---- Part A: ConnState micro ------------------------------------------
  // 16KiB request/response payloads: content-heavy L7 traffic, where
  // splice-style forwarding pays. The per-request win scales with payload
  // size; the short-lived cell shows the floor where per-connection setup
  // dominates.
  const ScenarioSpec specs[] = {
      {Scenario::Short, 1024, 1, 16384},
      {Scenario::KeepAlive, 128, 32, 16384},
      {Scenario::Pipelined, 128, 16, 16384},
  };
  const netsim::IoChain response = build_response(16384);

  std::printf("%-10s %14s %14s %9s %16s %14s\n", "scenario", "zc ns/req",
              "oracle ns/req", "speedup", "oracle B/req cpy", "zc allocs/req");
  for (const ScenarioSpec& spec : specs) {
    const auto inputs = build_inputs(spec);
    const CellResultPx zc = run_cell(inputs, response, /*zero_copy=*/true);
    const CellResultPx oracle =
        run_cell(inputs, response, /*zero_copy=*/false);

    const bool streams_match =
        zc.verify.wire_hash == oracle.verify.wire_hash &&
        zc.verify.egress_hash == oracle.verify.egress_hash;
    if (!streams_match) {
      std::fprintf(stderr,
                   "proxy_path: FATAL: %s stream hashes differ between "
                   "zero-copy and the copy oracle\n",
                   name_of(spec.kind));
      ok = false;
    }
    if (zc.verify.fwd_copied != 0) {
      std::fprintf(stderr,
                   "proxy_path: FATAL: zero-copy mode memcpy'd %" PRIu64
                   " bytes on the %s proxy path\n",
                   zc.verify.fwd_copied, name_of(spec.kind));
      ok = false;
    }

    const double reqs = static_cast<double>(zc.verify.requests);
    const double speedup = oracle.ns_per_req / zc.ns_per_req;
    const double oracle_cpy_per_req =
        static_cast<double>(oracle.verify.fwd_copied) / reqs;
    std::printf("%-10s %14.1f %14.1f %8.2fx %16.1f %14.1f\n",
                name_of(spec.kind), zc.ns_per_req, oracle.ns_per_req,
                speedup, oracle_cpy_per_req, zc.allocs_per_req);

    const std::string p = name_of(spec.kind);
    json.metric(p + ".zc_cost_ns", zc.ns_per_req);
    json.metric(p + ".oracle_cost_ns", oracle.ns_per_req);
    json.metric(p + ".speedup", speedup);
    json.metric(p + ".zc_memcpy_per_req", 0.0);
    json.metric(p + ".oracle_memcpy_per_req", oracle_cpy_per_req);
    json.metric(p + ".stream_match", streams_match ? 1.0 : 0.0);

    if (spec.kind == Scenario::KeepAlive) {
      const bool alloc_drop =
          zc.allocs_per_req < oracle.allocs_per_req;
      json.metric(p + ".zc_allocs_per_req", zc.allocs_per_req);
      json.metric(p + ".oracle_allocs_per_req", oracle.allocs_per_req);
      json.metric(p + ".alloc_drop_ok", alloc_drop ? 1.0 : 0.0);
      if (!alloc_drop) {
        std::fprintf(stderr,
                     "proxy_path: FATAL: zero-copy allocates no less than "
                     "the oracle (%.2f vs %.2f allocs/req)\n",
                     zc.allocs_per_req, oracle.allocs_per_req);
        ok = false;
      }
      if (speedup < 2.0) {
        std::fprintf(stderr,
                     "proxy_path: FATAL: keep-alive zero-copy speedup "
                     "%.2fx < required 2x\n",
                     speedup);
        ok = false;
      }
    }
  }

  // ---- Part B: sim leg ---------------------------------------------------
  subheader("sim leg: LbDevice keep-alive mix, both modes");
  sim::LbDevice zc_lb(sim_config(netsim::DispatchMode::HermesMode, true));
  sim::LbDevice or_lb(sim_config(netsim::DispatchMode::HermesMode, false));
  run_keepalive_mix(zc_lb);
  run_keepalive_mix(or_lb);
  const sim::DataPlane::Totals& zt = zc_lb.data_plane()->totals();
  const sim::DataPlane::Totals& ot = or_lb.data_plane()->totals();

  const bool sim_match = zt.backend_stream_hash == ot.backend_stream_hash &&
                         zt.client_stream_hash == ot.client_stream_hash &&
                         zt.requests_forwarded == ot.requests_forwarded;
  if (!sim_match) {
    std::fprintf(stderr,
                 "proxy_path: FATAL: sim-leg streams diverge between "
                 "zero-copy and the copy oracle\n");
    ok = false;
  }
  std::printf(
      "requests forwarded %" PRIu64 "  pool hits %" PRIu64 "  misses %" PRIu64
      "  zero-copied B %" PRIu64 "  streams %s\n",
      zt.requests_forwarded, zt.pool_hits, zt.pool_misses,
      zt.bytes_zero_copied, sim_match ? "MATCH" : "DIVERGE");
  json.metric("sim.requests_forwarded",
              static_cast<double>(zt.requests_forwarded));
  json.metric("sim.pool_hits", static_cast<double>(zt.pool_hits));
  json.metric("sim.pool_misses", static_cast<double>(zt.pool_misses));
  json.metric("sim.bytes_zero_copied",
              static_cast<double>(zt.bytes_zero_copied));
  json.metric("sim.stream_match", sim_match ? 1.0 : 0.0);

  // Rate-limited admission leg: one global bucket (client addresses are
  // random draws, so per-client buckets would not be deterministic).
  {
    sim::LbDevice::Config cfg =
        sim_config(netsim::DispatchMode::HermesMode, true);
    cfg.rate_limit.rate_per_sec = 200;
    cfg.rate_limit.burst = 16;
    cfg.rate_limit.buckets = 1;
    sim::LbDevice rl(cfg);
    run_keepalive_mix(rl);
    std::printf("rate-limit leg: admitted %" PRIu64 " refused %" PRIu64 "\n",
                rl.totals().conns_opened, rl.totals().rate_limited);
    json.metric("sim.rate_limited",
                static_cast<double>(rl.totals().rate_limited));
    if (rl.totals().rate_limited == 0) {
      std::fprintf(stderr,
                   "proxy_path: FATAL: rate-limit leg refused nothing\n");
      ok = false;
    }
  }

  // Fig. 13-style CPU spread, now with real bytes on the proxy path.
  subheader("fig13-style rerun: per-worker CPU SD under keep-alive mix");
  const double sd_rp = keepalive_mix_cpu_sd(netsim::DispatchMode::Reuseport);
  const double sd_hm = keepalive_mix_cpu_sd(netsim::DispatchMode::HermesMode);
  std::printf("reuseport CPU SD %.2fpp   hermes CPU SD %.2fpp\n", sd_rp,
              sd_hm);
  json.metric("kamix.reuseport.cpu_sd_pp", sd_rp);
  json.metric("kamix.hermes.cpu_sd_pp", sd_hm);

  std::printf("\nverdict: %s\n", ok ? "OK" : "FAILED");
  json.write();
  return ok ? 0 : 1;
}
