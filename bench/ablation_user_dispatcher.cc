// Ablation: the userspace-dispatcher alternative (paper §2.2). A dedicated
// dispatcher process gives perfect fairness — until its single core
// saturates on the accept+forward path. Hermes keeps the dispatcher inside
// the kernel (eBPF), so connection setup scales with CPS. We sweep CPS and
// report achieved throughput + latency for both, plus the dispatcher's
// core utilization.
#include <cstdio>

#include "bench/bench_common.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

struct Row {
  double thr_kcps;
  double p99_ms;
  double dispatcher_util;
};

Row run(netsim::DispatchMode mode, double cps, uint64_t seed) {
  sim::LbDevice::Config cfg;
  cfg.mode = mode;
  cfg.num_workers = 8;
  cfg.num_ports = 16;
  cfg.seed = seed;
  sim::LbDevice lb(cfg);

  sim::TrafficPattern p;
  p.cps = cps;
  p.requests_per_conn = sim::DistSpec::constant(1);
  p.request_cost_us = sim::DistSpec::lognormal(60, 0.3);  // light L7 work
  const SimTime end = SimTime::seconds(4);
  lb.start_pattern(p, 0, cfg.num_ports, end);
  lb.eq().run_until(SimTime::seconds(1));
  lb.take_window_latency();
  const uint64_t before = lb.totals().requests_completed;
  lb.eq().run_until(end);
  const uint64_t done = lb.totals().requests_completed - before;
  // Under UserDispatcher worker 0's loop is the dispatcher: its share of
  // [0, end], read before the drain adds to it.
  const SimTime dispatcher_busy = lb.worker(0).busy_time();
  lb.eq().run_until(end + SimTime::seconds(1));
  auto window = lb.take_window_latency();

  Row r;
  r.thr_kcps = static_cast<double>(done) / 3.0 / 1000.0;
  r.p99_ms = static_cast<double>(window.p99()) / 1e6;
  r.dispatcher_util =
      mode == netsim::DispatchMode::UserDispatcher
          ? static_cast<double>(dispatcher_busy.ns()) /
                static_cast<double>(end.ns())
          : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_user_dispatcher", &argc, argv);
  header("Ablation: userspace dispatcher (§2.2) vs in-kernel Hermes dispatch");
  std::printf("%-10s | %21s | %31s\n", "", "hermes", "user-dispatcher");
  std::printf("%-10s | %9s %11s | %9s %11s %9s\n", "offered",
              "kCPS out", "P99 (ms)", "kCPS out", "P99 (ms)", "disp CPU");
  bool share_over_100 = false;
  for (double cps : {10e3, 25e3, 50e3, 75e3, 100e3}) {
    const Row h = run(netsim::DispatchMode::HermesMode, cps, 7);
    const Row d = run(netsim::DispatchMode::UserDispatcher, cps, 7);
    std::printf("%-8.0fk | %9.1f %11.2f | %9.1f %11.2f %8.0f%%\n", cps / 1e3,
                h.thr_kcps, h.p99_ms, d.thr_kcps, d.p99_ms,
                100 * d.dispatcher_util);
    const std::string prefix = "cps" + std::to_string((int)(cps / 1e3)) + "k";
    json.metric(prefix + ".hermes_kcps", h.thr_kcps);
    json.metric(prefix + ".dispatcher_kcps", d.thr_kcps);
    json.metric(prefix + ".dispatcher_util_pct", 100 * d.dispatcher_util);
    share_over_100 |= d.dispatcher_util > 1.0;
  }
  std::printf("\nExpected: both match at low CPS; the dispatcher core"
              " saturates around\n1/dispatch_cost (~55 kCPS) and its"
              " throughput flatlines while latency\nexplodes — Hermes keeps"
              " scaling (the paper's argument for in-kernel\ndispatch on"
              " the connection path).\n");
  if (share_over_100) {
    std::fprintf(stderr, "FAIL: a core's busy share exceeds 100%%\n");
    return 1;
  }
  return 0;
}
