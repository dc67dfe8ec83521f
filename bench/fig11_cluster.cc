// Fig. 11 (cluster edition): the canary release simulated end-to-end on a
// real multi-device fleet instead of the analytic drain model. Two
// old-version (epoll exclusive) devices serve long-lived, surge-prone
// tenants behind the Maglev front tier; on the release day two Hermes
// devices join the fleet (Fleet::add_lb) and the old ones drain
// (Fleet::drain) as client connections churn out. Per-core probes track
// delayed counts per "day" on whichever devices still hold traffic.
#include <cstdio>

#include "bench/bench_common.h"
#include "sim/fleet.h"

using namespace hermes;
using namespace hermes::bench;

namespace {
constexpr SimTime kDay = SimTime::seconds(4);  // one compressed "day"
constexpr int kReleaseDay = 2;
constexpr double kDailyChurn = 0.55;  // fraction of old conns closing daily
}  // namespace

int main(int argc, char** argv) {
  BenchJson json("fig11_cluster", &argc, argv);
  header("Fig. 11 (cluster): canary release across 4 LB devices, simulated");

  sim::Fleet::Config fc;
  fc.num_lbs = 2;  // old version; the Hermes devices join on release day
  fc.device.mode = netsim::DispatchMode::EpollExclusive;
  fc.device.num_workers = 8;
  fc.device.num_ports = 16;
  fc.seed = 3;
  sim::Fleet fleet(fc);

  sim::Rng rng(99);
  sim::LbDevice::ConnPlan longlived;
  longlived.remaining = 1 << 20;  // effectively immortal until churned
  longlived.cost_us = sim::DistSpec::constant(80);
  longlived.gap_us = sim::DistSpec::exponential(2'000'000);

  std::printf("%-5s %8s %9s %13s %15s %15s\n", "day", "probes", "delayed",
              "delayed rate", "old-dev conns", "new-dev conns");
  uint64_t prev_delayed[4] = {};
  for (int day = 0; day < 8; ++day) {
    if (day == kReleaseDay) {
      fleet.add_lb(netsim::DispatchMode::HermesMode);
      fleet.add_lb(netsim::DispatchMode::HermesMode);
      fleet.drain(0);
      fleet.drain(1);
    }

    uint64_t probes = 0, delayed = 0;
    for (int quarter = 0; quarter < 4; ++quarter) {
      // New long-lived connections trickle in through the L4 front door
      // (spread over the quarter: sequential arrivals are what the LIFO
      // wakeup concentrates).
      for (int step = 0; step < 10; ++step) {
        for (int i = 0; i < 10; ++i) {
          fleet.open_burst(static_cast<TenantId>(i % 8), longlived, 1);
        }
        fleet.run_until(fleet.now() + kDay / 80);
      }
      fleet.run_until(fleet.now() + kDay / 40);
      // Synchronized surge (the lag-effect trigger) on every device.
      for (size_t d = 0; d < fleet.device_count(); ++d) {
        fleet.device(d).burst_all_connections(
            sim::DistSpec::lognormal(400, 0.3), 3);
      }
      // Probe every device that still carries connections, per core.
      for (size_t d = 0; d < fleet.device_count(); ++d) {
        auto& lb = fleet.device(d);
        if (lb.live_connections() == 0) continue;
        for (int i = 0; i < 50; ++i) {
          lb.inject_core_probe(
              static_cast<WorkerId>(rng.next_below(lb.num_workers())));
          ++probes;
        }
      }
      fleet.run_until(fleet.now() + kDay / 8);
    }

    uint64_t old_conns = 0, new_conns = 0;
    for (size_t d = 0; d < fleet.device_count(); ++d) {
      delayed += fleet.device(d).delayed_probes() - prev_delayed[d];
      prev_delayed[d] = fleet.device(d).delayed_probes();
      (d < fc.num_lbs ? old_conns : new_conns) +=
          fleet.device(d).live_connections();
    }
    std::printf("%-5d %8lu %9lu %12.1f%% %15lu %15lu%s\n", day,
                (unsigned long)probes, (unsigned long)delayed,
                100.0 * static_cast<double>(delayed) /
                    std::max<uint64_t>(1, probes),
                (unsigned long)old_conns, (unsigned long)new_conns,
                day == kReleaseDay ? "   <- Hermes release" : "");
    json.metric("day" + std::to_string(day) + ".delayed_rate_pct",
                100.0 * static_cast<double>(delayed) /
                    static_cast<double>(std::max<uint64_t>(1, probes)));
    json.metric("day" + std::to_string(day) + ".old_dev_conns",
                static_cast<double>(old_conns));

    // Daily client churn on every device; draining devices get no
    // replacements, so their population decays (the Fig. 11 tail).
    for (size_t d = 0; d < fleet.device_count(); ++d) {
      fleet.device(d).close_fraction(kDailyChurn);
    }
  }
  std::printf("\nShape: pre-release, surges on the exclusive devices delay"
              " a steady share\nof probes; after the release the Hermes"
              " devices absorb the same surges\nwith ~zero delays, and the"
              " residual old-device delays decay with the\nconnection churn"
              " — Fig. 11's tail, from an actual cluster run.\n");
  return 0;
}
