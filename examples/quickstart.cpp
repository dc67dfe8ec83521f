// Quickstart: assemble the full Hermes closed loop on the simulated
// kernel, push some traffic through it, and inspect what the pieces did.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "sim/lb.h"

using namespace hermes;

int main() {
  // An L7 LB with 8 worker processes and 16 tenant ports, using Hermes
  // (userspace-directed) connection dispatch. The alternatives are
  // EpollExclusive, EpollRr, EpollWakeAll, and Reuseport.
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 16;
  cfg.seed = 42;
  sim::LbDevice lb(cfg);

  // Traffic: the paper's "case 3" model — long-lived connections with many
  // small requests (finance/chat) at moderate load.
  const sim::TrafficPattern pattern =
      sim::case_pattern(/*case_id=*/3, cfg.num_workers, /*load=*/1.5);
  const SimTime end = SimTime::seconds(10);
  lb.start_pattern(pattern, /*first_tenant=*/0, /*tenant_span=*/16, end);

  // Run the discrete-event simulation.
  lb.eq().run_until(end);

  std::printf("== quickstart: Hermes L7 LB, 10 simulated seconds ==\n\n");
  std::printf("connections opened:   %lu (dropped %lu)\n",
              (unsigned long)lb.totals().conns_opened,
              (unsigned long)lb.totals().conns_dropped);
  std::printf("requests completed:   %lu (%.1f kRPS)\n",
              (unsigned long)lb.totals().requests_completed,
              lb.throughput_krps(end));
  const auto latency = lb.take_window_latency();  // the whole run
  std::printf("latency avg / P99:    %.3f ms / %.3f ms\n",
              latency.mean() / 1e6, (double)latency.p99() / 1e6);

  std::printf("\nper-worker state (the WST the schedulers read):\n");
  auto& wst = lb.hermes()->wst();
  for (WorkerId w = 0; w < cfg.num_workers; ++w) {
    const auto snap = wst.read(w);
    std::printf("  W%u: connections=%-5ld pending=%-3ld accepts=%-6lu"
                " busy=%.1f%%\n",
                w, (long)snap.connections, (long)snap.pending_events,
                (unsigned long)lb.worker(w).accepts_done(),
                100.0 * (double)lb.worker(w).busy_time().ns() /
                    (double)end.ns());
  }

  std::printf("\nkernel-visible selection bitmap: 0x%02lx"
              " (workers the next SYN may go to)\n",
              (unsigned long)lb.hermes()->kernel_bitmap());
  std::printf("scheduler executions: %lu; decision syncs: %lu\n",
              (unsigned long)lb.hermes()->counters().schedules,
              (unsigned long)lb.hermes()->counters().syncs);

  const auto* group = lb.netstack().group(sim::LbDevice::kFirstPort);
  std::printf("port %u dispatch: %lu by eBPF program, %lu fallbacks\n",
              sim::LbDevice::kFirstPort,
              (unsigned long)group->stats().bpf_selections,
              (unsigned long)group->stats().bpf_fallbacks);
  return 0;
}
