// Ablation: the cascading filter's stage ORDER and composition (§5.2.2).
// The paper argues for Time -> Connections -> PendingEvents: stability
// first (never pick hung workers), then accumulated-connection balance
// (surge robustness), then responsiveness. We compare orders and reduced
// cascades on a workload with both long-lived connections and wedges.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "simcore/histogram.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

struct Variant {
  const char* name;
  core::FilterStage order[3];
  uint32_t stages;
};

struct Outcome {
  double p99_ms;
  double conn_sd;
  double surge_p999_ms;
};

Outcome run_variant(const Variant& v, uint64_t seed) {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 32;
  cfg.seed = seed;
  for (uint32_t i = 0; i < v.stages; ++i) cfg.hermes.stage_order[i] = v.order[i];
  cfg.hermes.num_stages = v.stages;
  sim::LbDevice lb(cfg);

  // Long-lived conns + steady request load + rare wedges, then a surge.
  sim::TrafficPattern p = sim::case_pattern(3, cfg.num_workers, 1.5);
  p.poison_fraction = 0.0015;
  p.poison_cost_us = sim::DistSpec::uniform(150'000, 500'000);
  const SimTime end = SimTime::seconds(12);
  lb.start_pattern(p, 0, cfg.num_ports, end);
  lb.eq().run_until(SimTime::seconds(8));
  auto steady = lb.take_window_latency();

  lb.eq().schedule_at(SimTime::seconds(9), [&lb] {
    lb.burst_all_connections(sim::DistSpec::lognormal(200, 0.4), 2);
  });
  lb.eq().run_until(end + SimTime::seconds(2));
  auto surge = lb.take_window_latency();

  sim::RunningStat conns;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    conns.add(static_cast<double>(lb.worker(w).live_connections()));
  }
  return Outcome{static_cast<double>(steady.p99()) / 1e6, conns.stddev(),
                 static_cast<double>(surge.p999()) / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_filter_order", &argc, argv);
  header("Ablation: coarse-filter cascade order and composition");
  using FS = core::FilterStage;
  const Variant variants[] = {
      {"time,conn,event (paper)", {FS::Time, FS::Connections, FS::PendingEvents}, 3},
      {"time,event,conn", {FS::Time, FS::PendingEvents, FS::Connections}, 3},
      {"conn,event (no hang flt)", {FS::Connections, FS::PendingEvents, FS::Time}, 2},
      {"time only", {FS::Time, FS::Time, FS::Time}, 1},
      {"time,conn", {FS::Time, FS::Connections, FS::Time}, 2},
      {"time,event", {FS::Time, FS::PendingEvents, FS::Time}, 2},
  };
  std::printf("%-28s %12s %12s %16s\n", "cascade", "P99 (ms)", "conn SD",
              "surge P999 (ms)");
  for (const auto& v : variants) {
    double p99 = 0, sd = 0, surge = 0;
    for (uint64_t seed : {5ull, 6ull, 7ull}) {
      const auto o = run_variant(v, seed);
      p99 += o.p99_ms / 3;
      sd += o.conn_sd / 3;
      surge += o.surge_p999_ms / 3;
    }
    std::printf("%-28s %12.2f %12.1f %16.2f\n", v.name, p99, sd, surge);
    json.metric(std::string(v.name) + ".p99_ms", p99);
    json.metric(std::string(v.name) + ".conn_sd", sd);
    json.metric(std::string(v.name) + ".surge_p999_ms", surge);
  }
  std::printf("\nExpected: dropping the connection filter (time-only /"
              " time,event) inflates\nconn SD and the surge P999 (the lag"
              " effect returns); dropping the hang filter\ninflates steady"
              " P99 (wedged workers keep receiving connections).\n");
  return 0;
}
