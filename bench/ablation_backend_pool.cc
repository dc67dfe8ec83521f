// Ablation: the two §7 deployment fixes quantified.
//  1. Backend round-robin start offset: synchronized restarts after a
//     backend-list update skew traffic 2-3x onto the first backends;
//     randomizing each worker's start offset flattens it.
//  2. Backend connection pooling: Hermes's even spread fragments per-worker
//     pools (more TCP/TLS handshakes to far-away IDCs); a shared pool
//     restores reuse.
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "core/backend_pool.h"
#include "simcore/rng.h"

using namespace hermes;
using namespace hermes::bench;

namespace {

void rr_experiment(bool randomize, BenchJson& json) {
  constexpr uint32_t kWorkers = 32;
  constexpr uint32_t kBackends = 16;
  constexpr int kUpdates = 50;       // controller pushes per run
  constexpr int kReqsPerUpdate = 3;  // few requests per worker per epoch

  core::RoundRobinBackends rr(kWorkers, randomize);
  std::vector<core::BackendId> list;
  for (uint32_t b = 0; b < kBackends; ++b) list.push_back(b);

  std::map<core::BackendId, uint64_t> traffic;
  sim::Rng rng(77);
  for (int u = 0; u < kUpdates; ++u) {
    rr.update_backends(list, rng.next_u64());
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (int r = 0; r < kReqsPerUpdate; ++r) ++traffic[rr.pick(w)];
    }
  }
  uint64_t mx = 0, mn = ~0ull, total = 0;
  for (auto& [b, n] : traffic) {
    mx = std::max(mx, n);
    mn = std::min(mn, n);
    total += n;
  }
  if (traffic.size() < kBackends) mn = 0;
  std::printf("%-24s max/avg=%.2fx  max/min=%s%.1fx  backends hit=%zu/%u\n",
              randomize ? "randomized start (fix)" : "synchronized restart",
              static_cast<double>(mx) * kBackends / static_cast<double>(total),
              mn == 0 ? ">" : "", mn == 0 ? 99.0
                                          : static_cast<double>(mx) /
                                                static_cast<double>(mn),
              traffic.size(), kBackends);
  json.metric(std::string(randomize ? "randomized" : "synchronized") +
                  ".max_over_avg",
              static_cast<double>(mx) * kBackends /
                  static_cast<double>(total));
}

void pool_experiment(BenchJson& json) {
  constexpr uint32_t kWorkers = 32;
  constexpr uint32_t kBackends = 8;
  constexpr int kRequests = 100000;
  const double handshake_ms = 80;  // cross-Internet TCP+TLS to an IDC

  for (const bool hermes_spread : {false, true}) {
    for (const bool shared : {false, true}) {
      // Unbounded, no expiry: reuse-or-miss accounting only.
      core::BackendConnectionPool pool(core::BackendConnectionPool::Config{
          shared, kWorkers, UINT32_MAX, SimTime{}});
      sim::Rng rng(5);
      for (int i = 0; i < kRequests; ++i) {
        // Exclusive concentrates requests on few workers; Hermes spreads.
        const WorkerId w =
            hermes_spread
                ? static_cast<WorkerId>(rng.next_below(kWorkers))
                : static_cast<WorkerId>(rng.next_below(3));  // top-3 workers
        const auto b = static_cast<core::BackendId>(rng.next_below(kBackends));
        const auto reused = pool.acquire(w, b, SimTime{});
        pool.release(w, b, reused ? reused->id : 0, SimTime{});
      }
      const auto& st = pool.stats();
      std::printf("%-18s %-14s hit rate %6.2f%%  extra handshake latency"
                  " %.3f ms/req\n",
                  hermes_spread ? "hermes spread" : "exclusive concent.",
                  shared ? "shared pool" : "per-worker pool",
                  100 * st.hit_rate(), (1.0 - st.hit_rate()) * handshake_ms);
      json.metric(std::string(hermes_spread ? "spread" : "concentrated") +
                      (shared ? ".shared" : ".per_worker") + ".hit_rate_pct",
                  100 * st.hit_rate());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("ablation_backend_pool", &argc, argv);
  header("Ablation: backend RR start offset & shared connection pool (§7)");
  subheader("1. backend traffic skew after synchronized list updates");
  rr_experiment(false, json);
  rr_experiment(true, json);
  subheader("2. backend connection reuse vs pool architecture");
  pool_experiment(json);
  std::printf("\nExpected: randomized offsets remove the 2-3x first-backend"
              " skew; a shared\npool keeps reuse high under Hermes's even"
              " spread (per-worker pools only\nwork when traffic concentrates"
              " on a few workers).\n");
  return 0;
}
