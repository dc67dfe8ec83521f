// Ablation: scheduler placement in the epoll event loop (§5.3.2).
// The paper places schedule_and_sync() at the END of the loop body so the
// published status reflects the batch that was just processed. Scheduling
// at the START publishes pre-batch (stale) status: a worker that is about
// to chew through a heavy batch advertises itself as available and gets
// new connections it cannot serve promptly.
#include <cstdio>

#include "bench/bench_common.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

struct Outcome {
  double avg_ms;
  double p99_ms;
};

Outcome run_placement(bool at_start, uint64_t seed) {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 32;
  cfg.seed = seed;
  cfg.worker.schedule_at_loop_start = at_start;
  // Isolate event-status staleness: schedule on hang + pending events only
  // (the connection filter would mask the placement effect, since conn
  // counts change identically under both placements).
  cfg.hermes.stage_order[0] = core::FilterStage::Time;
  cfg.hermes.stage_order[1] = core::FilterStage::PendingEvents;
  cfg.hermes.num_stages = 2;
  sim::LbDevice lb(cfg);

  // Bursty, heavy batches make the stale-status window matter.
  sim::TrafficPattern p = sim::case_pattern(2, cfg.num_workers, 1.6);
  const SimTime end = SimTime::seconds(10);
  lb.start_pattern(p, 0, cfg.num_ports, end);
  lb.eq().run_until(SimTime::seconds(2));
  lb.take_window_latency();
  lb.eq().run_until(end + SimTime::seconds(2));
  auto window = lb.take_window_latency();
  return Outcome{window.mean() / 1e6,
                 static_cast<double>(window.p99()) / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_sched_placement", &argc, argv);
  header("Ablation: scheduler at loop END (paper) vs loop START");
  // Seeds paired: both placements see the same traffic per seed, so the
  // verdict counts the seeds on which the end placement has the lower
  // average latency instead of comparing two means whose per-seed spread
  // is larger than their difference.
  constexpr uint64_t kFirstSeed = 3;
  constexpr int kSeeds = 12;
  Outcome end_mean{0, 0};
  Outcome start_mean{0, 0};
  int end_better = 0;
  std::printf("%-6s %12s %12s %14s %14s\n", "seed", "end avg", "end P99",
              "start avg", "start P99");
  for (int i = 0; i < kSeeds; ++i) {
    const uint64_t seed = kFirstSeed + static_cast<uint64_t>(i);
    const Outcome end = run_placement(/*at_start=*/false, seed);
    const Outcome start = run_placement(/*at_start=*/true, seed);
    std::printf("%-6llu %12.2f %12.2f %14.2f %14.2f\n",
                static_cast<unsigned long long>(seed), end.avg_ms, end.p99_ms,
                start.avg_ms, start.p99_ms);
    end_mean.avg_ms += end.avg_ms / kSeeds;
    end_mean.p99_ms += end.p99_ms / kSeeds;
    start_mean.avg_ms += start.avg_ms / kSeeds;
    start_mean.p99_ms += start.p99_ms / kSeeds;
    if (end.avg_ms < start.avg_ms) ++end_better;
  }
  std::printf("\n%-22s %12s %12s\n", "placement (mean)", "Avg (ms)",
              "P99 (ms)");
  std::printf("%-22s %12.2f %12.2f\n", "loop end (paper)", end_mean.avg_ms,
              end_mean.p99_ms);
  std::printf("%-22s %12.2f %12.2f\n", "loop start (stale)",
              start_mean.avg_ms, start_mean.p99_ms);
  json.metric("loop_end.avg_ms", end_mean.avg_ms);
  json.metric("loop_end.p99_ms", end_mean.p99_ms);
  json.metric("loop_start.avg_ms", start_mean.avg_ms);
  json.metric("loop_start.p99_ms", start_mean.p99_ms);
  json.metric("end_better_seeds", end_better);

  const char* verdict = end_better >= kSeeds - 2 ? "end wins"
                        : end_better <= 2        ? "start wins"
                                                 : "unresolved";
  std::printf("\nend better (lower avg) in %d/%d seeds: %s\n", end_better,
              kSeeds, verdict);
  std::printf("(§5.3.2 expects end-of-loop placement to win: start-of-loop"
              " publishes\nstatus before the batch lands, overloading"
              " apparently-idle workers.)\n");
  return 0;
}
