// Fig. 5: (a) CDF of event processing time and (b) CDF of epoll_wait()
// blocking time per worker over a window — idle workers block the full
// 5 ms timeout, busy ones return quickly, and the computation-heavy worker
// has longer per-event processing times.
#include <cstdio>

#include "bench/bench_common.h"

using namespace hermes;
using namespace hermes::bench;

int main(int argc, char** argv) {
  BenchJson json("fig5_time_cdf", &argc, argv);
  header("Fig. 5: event processing time & epoll_wait blocking time CDFs");

  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::EpollExclusive;
  cfg.num_workers = 4;
  cfg.num_ports = 16;
  cfg.seed = 11;
  sim::LbDevice lb(cfg);

  const auto mixes = sim::paper_region_mixes();
  const auto tm = sim::TenantModel::from_mix(mixes[1], 16, 1.3);
  lb.start_tenant_mix(tm, 70, cfg.num_workers, 1.0, SimTime::seconds(10));
  lb.eq().run_until(SimTime::seconds(10));

  subheader("(a) event processing time per event (us)");
  std::printf("%-9s %9s %9s %9s %9s\n", "worker", "P50", "P90", "P99", "max");
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    auto& h = lb.worker(w).event_processing_time();
    std::printf("W%-8u %9.0f %9.0f %9.0f %9.0f\n", w,
                static_cast<double>(h.p50()) / 1e3,
                static_cast<double>(h.p90()) / 1e3,
                static_cast<double>(h.p99()) / 1e3,
                static_cast<double>(h.max_value()) / 1e3);
    std::string prefix = "w";
    prefix += std::to_string(w);
    json.metric(prefix + ".proc_p99_us", static_cast<double>(h.p99()) / 1e3);
  }

  subheader("(b) epoll_wait blocking time (ms; timeout = 5 ms)");
  std::printf("%-9s %9s %9s %9s %12s\n", "worker", "P50", "P90", "P99",
              "%full-5ms");
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    auto& h = lb.worker(w).blocking_time();
    std::printf("W%-8u %9.2f %9.2f %9.2f", w,
                static_cast<double>(h.p50()) / 1e6,
                static_cast<double>(h.p90()) / 1e6,
                static_cast<double>(h.p99()) / 1e6);
    // Waits that hit the full 5 ms timeout == wakeups with no events.
    const double wasted_pct =
        100.0 * static_cast<double>(lb.worker(w).wasted_wakeups()) /
        static_cast<double>(
            std::max<uint64_t>(1, lb.worker(w).loop_iterations()));
    std::printf(" %11.1f%%\n", wasted_pct);
    std::string prefix = "w";
    prefix += std::to_string(w);
    json.metric(prefix + ".block_p50_ms",
                static_cast<double>(h.p50()) / 1e6);
    json.metric(prefix + ".wasted_pct", wasted_pct);
  }
  std::printf("\nShape: busy (LIFO-head) workers block ~0 ms and process"
              " heavier events;\nidle workers spend most waits blocking the"
              " full 5 ms (paper Fig. 5b).\n");
  return 0;
}
