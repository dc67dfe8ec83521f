// Ablation: group-based scheduling for cache locality vs load balance
// (Appendix C, Fig. A6). Group size trades the two: one group of 64 =
// standard Hermes (max balance, no locality); one worker per group =
// reuseport (max locality, no balance). We sweep the group count on a
// fixed worker pool and report both metrics.
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_common.h"
#include "simcore/histogram.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

struct Outcome {
  double conn_sd;          // balance: SD of per-worker connections
  double avg_workers_per_dest;  // locality: distinct workers serving a dest
};

Outcome run_groups(uint32_t workers_per_group, uint64_t seed) {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 16;
  cfg.seed = seed;
  cfg.hermes.workers_per_group = workers_per_group;
  // Locality mode: allow singleton selections (min n=2 would force the
  // hash fallback across ALL sockets and break group confinement; the
  // overload guard matters less when groups are intentionally narrow).
  cfg.hermes.min_workers_for_dispatch = 1;
  sim::LbDevice lb(cfg);

  sim::TrafficPattern p = sim::case_pattern(3, cfg.num_workers, 1.0);
  const SimTime end = SimTime::seconds(8);
  lb.start_pattern(p, 0, cfg.num_ports, end);
  lb.eq().run_until(end);

  // Locality: how many distinct workers served each destination port.
  std::map<PortId, std::set<WorkerId>> dest_workers;
  for (uint32_t pt = 0; pt < cfg.num_ports; ++pt) {
    const auto port = static_cast<PortId>(sim::LbDevice::kFirstPort + pt);
    for (WorkerId w = 0; w < cfg.num_workers; ++w) {
      auto* sock = lb.netstack().worker_socket(port, w);
      if (sock != nullptr && sock->accept_queue().high_watermark() > 0) {
        dest_workers[port].insert(w);
      }
    }
  }
  double sum = 0;
  for (auto& [port, ws] : dest_workers) sum += static_cast<double>(ws.size());
  const double avg_workers =
      dest_workers.empty() ? 0 : sum / static_cast<double>(dest_workers.size());

  sim::RunningStat conns;
  for (WorkerId w = 0; w < cfg.num_workers; ++w) {
    conns.add(static_cast<double>(lb.worker(w).live_connections()));
  }
  return Outcome{conns.stddev(), avg_workers};
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_group_locality", &argc, argv);
  header("Ablation: group size — cache locality vs load balance (Fig. A6)");
  std::printf("%-18s %10s %14s %24s\n", "workers/group", "#groups",
              "conn SD", "avg workers per dest");
  for (uint32_t wpg : {8u, 4u, 2u, 1u}) {
    double sd = 0, loc = 0;
    for (uint64_t seed : {9ull, 10ull, 11ull}) {
      const auto o = run_groups(wpg, seed);
      sd += o.conn_sd / 3;
      loc += o.avg_workers_per_dest / 3;
    }
    std::printf("%-18u %10u %14.1f %24.2f\n", wpg, 8 / wpg, sd, loc);
    const std::string prefix = "wpg" + std::to_string(wpg);
    json.metric(prefix + ".conn_sd", sd);
    json.metric(prefix + ".workers_per_dest", loc);
  }
  std::printf("\nExpected: fewer workers per group -> fewer distinct"
              " workers per destination\n(better locality) but higher conn"
              " SD (worse balance). wpg=8 is standard\nHermes; wpg=1"
              " degenerates to reuseport, exactly as Appendix C notes.\n");
  return 0;
}
