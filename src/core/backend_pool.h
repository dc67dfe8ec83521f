// Backend-side machinery from the paper's deployment experiences (§7).
//
// 1. RoundRobinBackends — after a backend-list update, every worker used to
//    restart round-robin from index 0; with Hermes spreading requests over
//    *all* workers this synchronized restart overloads the first few
//    backends ("2-3x the traffic of others"). The fix: randomize each
//    worker's start offset on every list update.
//
// 2. BackendConnectionPool — Hermes spreads traffic across workers, which
//    fragments per-worker backend connection pools and lowers reuse
//    (costly TCP/TLS handshakes to on-prem IDCs). The fix: share the pool
//    across workers. The pool holds *identified* idle connections per
//    (partition, backend): bounded per backend, reused LIFO (the warmest
//    connection first — best TCP cwnd / TLS session state), with cold
//    connections expired from the FIFO end after an idle timeout. The
//    data plane (sim::DataPlane) drives it; the ablation bench runs it
//    unbounded with expiry off, which leaves pure reuse-or-miss counting.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::core {

using BackendId = uint32_t;

class RoundRobinBackends {
 public:
  // randomize_start: the paper's fix; off reproduces the incident.
  RoundRobinBackends(uint32_t num_workers, bool randomize_start)
      : randomize_start_(randomize_start), next_(num_workers, 0) {}

  // Controller pushes a new backend list to every worker simultaneously.
  // `seed` stands in for each worker's local entropy source.
  void update_backends(std::vector<BackendId> backends, uint64_t seed) {
    backends_ = std::move(backends);
    for (size_t w = 0; w < next_.size(); ++w) {
      if (randomize_start_ && !backends_.empty()) {
        // splitmix-style per-worker offset
        uint64_t z = seed + 0x9e3779b97f4a7c15ull * (w + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        next_[w] = static_cast<uint32_t>((z ^ (z >> 31)) % backends_.size());
      } else {
        next_[w] = 0;  // the synchronized-restart bug
      }
    }
  }

  BackendId pick(WorkerId w) {
    HERMES_CHECK(!backends_.empty() && w < next_.size());
    const BackendId b = backends_[next_[w] % backends_.size()];
    next_[w] = (next_[w] + 1) % static_cast<uint32_t>(backends_.size());
    return b;
  }

  size_t num_backends() const { return backends_.size(); }

 private:
  bool randomize_start_;
  std::vector<BackendId> backends_;
  std::vector<uint32_t> next_;  // per-worker RR cursor
};

class BackendConnectionPool {
 public:
  struct Config {
    // shared=false: one pool partition per worker (reuse only within the
    // worker). shared=true: one pool for the whole LB (the paper's fix).
    bool shared = true;
    uint32_t num_workers = 1;
    // Bound on idle connections kept per (partition, backend); releasing
    // past the bound evicts the coldest idle connection.
    uint32_t max_idle_per_backend = 32;
    // Idle connections older than this are expired (closed) before
    // reuse is considered. ns()==0 disables expiry.
    SimTime idle_expiry = SimTime::seconds(30);
  };

  // An idle backend connection. `id` identifies the simulated TCP
  // connection across acquire/release cycles.
  struct PooledConn {
    uint64_t id = 0;
    SimTime idle_since{};
  };

  explicit BackendConnectionPool(const Config& cfg)
      : cfg_(cfg), idle_(cfg.shared ? 1 : cfg.num_workers) {}

  // A worker needs a backend connection: expire cold idle connections,
  // then reuse the warmest (LIFO). nullopt → the caller "establishes" a
  // new connection (handshake cost charged by the caller).
  std::optional<PooledConn> acquire(WorkerId w, BackendId b, SimTime now) {
    auto& dq = idle_[partition(w)][b];
    expire_bucket(dq, now);
    if (!dq.empty()) {
      PooledConn c = dq.back();
      dq.pop_back();
      --idle_total_;
      ++stats_.hits;
      return c;
    }
    ++stats_.misses;
    return std::nullopt;
  }

  // Request done; the backend connection goes idle for reuse. Pass the
  // PooledConn id from acquire (or 0 for a newly established one — an
  // identity is minted).
  void release(WorkerId w, BackendId b, uint64_t conn_id, SimTime now) {
    auto& dq = idle_[partition(w)][b];
    if (dq.size() >= cfg_.max_idle_per_backend) {
      dq.pop_front();  // evict the coldest
      ++stats_.evictions;
      --idle_total_;
    }
    dq.push_back(PooledConn{conn_id != 0 ? conn_id : next_id_++, now});
    ++idle_total_;
  }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;  // == new handshakes
    uint64_t expiries = 0;
    uint64_t evictions = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total) : 0;
    }
  };
  const Stats& stats() const { return stats_; }

  // Current idle connections across the pool (the occupancy gauge).
  uint64_t idle_total() const { return idle_total_; }
  const Config& config() const { return cfg_; }

 private:
  size_t partition(WorkerId w) const { return cfg_.shared ? 0 : w; }

  void expire_bucket(std::deque<PooledConn>& dq, SimTime now) {
    if (cfg_.idle_expiry.ns() <= 0) return;
    while (!dq.empty() &&
           now.ns() - dq.front().idle_since.ns() >= cfg_.idle_expiry.ns()) {
      dq.pop_front();
      ++stats_.expiries;
      --idle_total_;
    }
  }

  Config cfg_;
  std::vector<std::unordered_map<BackendId, std::deque<PooledConn>>> idle_;
  uint64_t next_id_ = 1;
  uint64_t idle_total_ = 0;
  Stats stats_;
};

}  // namespace hermes::core
