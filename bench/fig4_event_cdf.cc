// Fig. 4: CDF of the number of events returned per epoll_wait() call for
// each worker on one LB under epoll exclusive — the paper's evidence that
// some workers (PIDs 5113/5115 there) are systematically busier.
#include <cstdio>

#include "bench/bench_common.h"

using namespace hermes;
using namespace hermes::bench;

int main(int argc, char** argv) {
  BenchJson json("fig4_event_cdf", &argc, argv);
  header("Fig. 4: #events returned from epoll_wait() per worker (exclusive)");

  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::EpollExclusive;
  cfg.num_workers = 4;
  cfg.num_ports = 16;
  cfg.seed = 5;
  sim::LbDevice lb(cfg);

  const auto mixes = sim::paper_region_mixes();
  const auto tm = sim::TenantModel::from_mix(mixes[1], 16, 1.3);
  lb.start_tenant_mix(tm, 70, cfg.num_workers, 1.0, SimTime::seconds(10));
  lb.eq().run_until(SimTime::seconds(10));

  std::printf("%-9s %8s %8s %8s %8s %8s %10s\n", "worker", "P50", "P90",
              "P99", "max", "mean", "#waits");
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    auto& h = lb.worker(w).events_per_wait();
    std::printf("W%-8u %8ld %8ld %8ld %8ld %8.2f %10lu\n", w,
                static_cast<long>(h.p50()), static_cast<long>(h.p90()),
                static_cast<long>(h.p99()), static_cast<long>(h.max_value()),
                h.mean(), static_cast<unsigned long>(h.count));
    std::string prefix = "w";
    prefix += std::to_string(w);
    json.metric(prefix + ".events_p99", static_cast<double>(h.p99()));
    json.metric(prefix + ".events_mean", h.mean());
    json.metric(prefix + ".waits", static_cast<double>(h.count));
  }
  std::printf("\nShape: the LIFO-favoured worker (highest id) collects far"
              " more events per\nwait than its siblings — the skew of paper"
              " Fig. 4.\n");
  return 0;
}
