// Ablation: the two-level (grouped) scheme beyond 64 workers (paper §7
// "Will the 64-bit atomic<int> limit Hermes on 128-core machines?").
// A 128-worker LB with two 64-worker groups must still balance load and
// bypass hung workers; we also show the single-group 64-worker baseline
// and the paper's preferred alternative (multiple 32-core VMs).
#include <cstdio>

#include "bench/bench_common.h"
#include "simcore/histogram.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

struct Row {
  double p99_ms;
  double conn_sd;
  uint64_t bpf_selected;
};

Row run(uint32_t workers, uint32_t wpg, uint64_t seed) {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = workers;
  cfg.num_ports = 32;
  cfg.seed = seed;
  cfg.hermes.workers_per_group = wpg;
  sim::LbDevice lb(cfg);

  sim::TrafficPattern p = sim::case_pattern(3, workers, 1.2);
  const SimTime end = SimTime::seconds(6);
  lb.start_pattern(p, 0, cfg.num_ports, end);
  lb.eq().run_until(SimTime::seconds(2));
  lb.take_window_latency();
  lb.eq().run_until(end);
  auto window = lb.take_window_latency();

  sim::RunningStat conns;
  for (WorkerId w = 0; w < workers; ++w) {
    conns.add(static_cast<double>(lb.worker(w).live_connections()));
  }
  uint64_t sel = 0;
  for (uint32_t pt = 0; pt < cfg.num_ports; ++pt) {
    sel += lb.netstack()
               .group(static_cast<PortId>(sim::LbDevice::kFirstPort + pt))
               ->stats()
               .bpf_selections;
  }
  return Row{static_cast<double>(window.p99()) / 1e6, conns.stddev(), sel};
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_two_level", &argc, argv);
  header("Ablation: two-level scheduling beyond 64 workers (paper §7)");
  std::printf("%-26s %10s %10s %14s\n", "configuration", "P99 (ms)",
              "conn SD", "bpf dispatches");

  const Row w64 = run(64, 64, 31);
  std::printf("%-26s %10.2f %10.1f %14lu\n", "64 workers, 1 group", w64.p99_ms,
              w64.conn_sd, (unsigned long)w64.bpf_selected);
  json.metric("w64.conn_sd", w64.conn_sd);
  json.metric("w64.bpf_selected", static_cast<double>(w64.bpf_selected));
  const Row w128 = run(128, 64, 32);
  std::printf("%-26s %10.2f %10.1f %14lu\n", "128 workers, 2 groups",
              w128.p99_ms, w128.conn_sd, (unsigned long)w128.bpf_selected);
  json.metric("w128.conn_sd", w128.conn_sd);
  json.metric("w128.bpf_selected", static_cast<double>(w128.bpf_selected));
  const Row w100 = run(100, 64, 33);
  std::printf("%-26s %10.2f %10.1f %14lu\n", "100 workers, 64+36 groups",
              w100.p99_ms, w100.conn_sd, (unsigned long)w100.bpf_selected);
  json.metric("w100.conn_sd", w100.conn_sd);
  json.metric("w100.bpf_selected", static_cast<double>(w100.bpf_selected));

  std::printf("\nExpected: grouped scheduling preserves balance and latency"
              " at 100-128\nworkers — the 64-bit bitmap does not cap Hermes;"
              " each group filters its own\nslice of the WST and owns one"
              " M_sel slot.\n");
  return 0;
}
