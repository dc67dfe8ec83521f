// Failure injection: wedge a worker with a poisonous request and watch the
// Hermes closed loop react, step by step:
//   t=0.2s  poison request wedges one worker for 3 seconds
//   +50ms   FilterTime notices its loop-entry timestamp is stale ->
//           the worker drops out of the kernel-visible bitmap
//   +500ms  the degradation policy resets a fraction of its connections;
//           clients reconnect and land on healthy workers
//   t=3.2s  the worker recovers, re-enters its loop, and returns to the
//           bitmap automatically
#include <cstdio>

#include "sim/lb.h"

using namespace hermes;

namespace {

void print_state(sim::LbDevice& lb, const char* tag) {
  std::printf("[t=%6.2fs] %-34s bitmap=0x%02lx  conns per worker: ",
              lb.eq().now().s_f(), tag,
              (unsigned long)lb.hermes()->kernel_bitmap());
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    std::printf("%ld ", (long)lb.worker(w).live_connections());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 4;
  cfg.num_ports = 8;
  cfg.seed = 99;
  cfg.hermes.degradation_after = SimTime::millis(400);
  cfg.hermes.degradation_reset_fraction = 0.5;
  sim::LbDevice lb(cfg);

  std::printf("== failure injection: one worker wedges for 3 s ==\n\n");

  // Background: steady short-request traffic plus some open connections.
  sim::TrafficPattern p;
  p.cps = 600;
  p.requests_per_conn = sim::DistSpec::uniform(2, 5);
  p.request_cost_us = sim::DistSpec::constant(150);
  p.request_gap_us = sim::DistSpec::exponential(50'000);
  lb.start_pattern(p, 0, cfg.num_ports, SimTime::seconds(5));

  // The wedge: a single 3-second request at t=0.2s.
  lb.eq().schedule_at(SimTime::millis(200), [&lb] {
    sim::LbDevice::ConnPlan poison;
    poison.remaining = 1;
    poison.cost_us = sim::DistSpec::constant(3'000'000);
    lb.open_connection(0, poison);
    std::printf("[t=%6.2fs] >>> poison request injected (3s of CPU)\n",
                lb.eq().now().s_f());
  });

  // Degradation sweeps every 100 ms (production: embedded in ops tooling).
  for (int t = 1; t <= 48; ++t) {
    lb.eq().schedule_at(SimTime::millis(100) * t,
                        [&lb] { lb.run_degradation_sweep(); });
  }

  // Observation points.
  for (double at : {0.1, 0.3, 0.4, 0.9, 1.5, 2.5, 3.5, 4.5}) {
    lb.eq().schedule_at(SimTime::from_seconds_f(at),
                        [&lb] { print_state(lb, "state"); });
  }

  lb.eq().run_until(SimTime::seconds(5));

  std::printf("\nresets issued by degradation: %lu\n",
              (unsigned long)lb.totals().degradation_resets);
  std::printf("requests completed: %lu, latency P99 %.2f ms\n",
              (unsigned long)lb.totals().requests_completed,
              (double)lb.take_window_latency().p99() / 1e6);
  std::printf("\nReading: the bitmap loses one bit within ~50 ms of the"
              " wedge, its\nconnections shrink after the resets, and the"
              " bit returns once the worker\nre-enters its event loop.\n");
  return 0;
}
