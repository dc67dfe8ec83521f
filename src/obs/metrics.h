// Metrics registry: lock-free counters, gauges, and log-bucketed histograms
// for the dispatch pipeline (paper Table 5 — instrumentation must stay in
// the noise of the event-loop hot path).
//
// Hot-path discipline:
//   * integer-only updates — one relaxed load+store pair, no floats, no
//     branches beyond the bucket index. Each shard has a single writer
//     (the owning worker), so no lock-prefixed RMW is needed: a plain
//     add compiles out of the load/store pair, exactly the WST's
//     single-writer-slot argument (§5.3.1). Atomics are for the readers —
//     merge-on-read sees untorn, possibly slightly stale words;
//   * per-worker shards, each on its own cache line, so writers never
//     contend (the same partitioning argument as the WST, §5.3.1);
//   * merging shards happens on the *read* side (snapshot/export), which is
//     cold — exactly the "update fast, aggregate lazily" split the paper
//     uses for its own load signals.
//
// Registration (Registry::counter/gauge/histogram) takes a mutex and may
// allocate; layers resolve their metric pointers once at wiring time
// (PipelineMetrics) and only touch the returned objects afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::obs {

// A monotone counter, sharded per worker. Shard 0 is the conventional home
// for kernel-/control-plane-side increments. Contract: at most one writer
// per shard at a time (the owning worker) — updates are a relaxed
// load+store, not an atomic RMW, so concurrent writers to the SAME shard
// would lose increments. Readers are unrestricted.
class Counter {
 public:
  explicit Counter(uint32_t shards) : n_(shards) {
    HERMES_CHECK(shards > 0);
    shards_ = std::make_unique<Shard[]>(shards);
  }

  void add(uint32_t shard, uint64_t delta = 1) {
    HERMES_DCHECK(shard < n_);
    auto& v = shards_[shard].v;
    v.store(v.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  void inc(uint32_t shard) { add(shard, 1); }

  // Merged-on-read total across all shards.
  uint64_t value() const {
    uint64_t sum = 0;
    for (uint32_t s = 0; s < n_; ++s) {
      sum += shards_[s].v.load(std::memory_order_relaxed);
    }
    return sum;
  }
  uint64_t shard_value(uint32_t shard) const {
    HERMES_DCHECK(shard < n_);
    return shards_[shard].v.load(std::memory_order_relaxed);
  }
  uint32_t shards() const { return n_; }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  static_assert(sizeof(Shard) == 64);

  std::unique_ptr<Shard[]> shards_;
  uint32_t n_;
};

// A point-in-time signed value (queue depth, staleness, config echo).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log-linear histogram over uint64 values: 2^sub_bits linear sub-buckets
// per power of two (same scheme as sim::Histogram, but integer-only atomic
// buckets and per-worker shards). Relative error <= 2^-sub_bits.
class LogHistogram {
 public:
  explicit LogHistogram(uint32_t shards, uint32_t sub_bits = 2);

  // Same single-writer-per-shard contract as Counter.
  void record(uint32_t shard, uint64_t v) {
    HERMES_DCHECK(shard < n_);
    const size_t base = static_cast<size_t>(shard) * stride_;
    auto& bucket = buckets_[base + bucket_index(v, sub_bits_)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    auto& sum = sums_[shard].v;
    sum.store(sum.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
  }

  uint32_t shards() const { return n_; }
  uint32_t sub_bits() const { return sub_bits_; }
  uint32_t num_buckets() const { return num_buckets_; }

  // ---- bucket geometry (exposed for the boundary property tests) -------
  // Power-of-two groups 0..64-sub_bits (group g>0 covers msb == g-1+sub_bits,
  // group 64-sub_bits covers msb == 63), each with 2^sub_bits sub-buckets.
  static uint32_t bucket_count(uint32_t sub_bits) {
    return (65 - sub_bits) << sub_bits;
  }
  static size_t bucket_index(uint64_t v, uint32_t sub_bits);
  // Inclusive value range covered by bucket `idx`.
  static uint64_t bucket_lower(size_t idx, uint32_t sub_bits);
  static uint64_t bucket_upper(size_t idx, uint32_t sub_bits);

  // A merged (or per-shard) read-side view. Plain integers — snapshots are
  // value types the tests can merge in any association order.
  struct Snapshot {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint32_t sub_bits = 0;

    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
    }
    // Representative (upper-edge) value at quantile q in [0,1].
    uint64_t quantile(double q) const;
    uint64_t p50() const { return quantile(0.50); }
    uint64_t p99() const { return quantile(0.99); }
    void merge(const Snapshot& o);
  };
  Snapshot snapshot() const;               // all shards merged
  Snapshot shard_snapshot(uint32_t shard) const;

 private:
  uint32_t n_;
  uint32_t sub_bits_;
  uint32_t num_buckets_;
  size_t stride_;  // bucket entries per shard, padded to a cache line
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  struct alignas(64) PaddedSum {
    std::atomic<uint64_t> v{0};
  };
  std::unique_ptr<PaddedSum[]> sums_;
};

// Named-metric registry. Creation is idempotent per name; returned
// references stay valid for the registry's lifetime.
class Registry {
 public:
  explicit Registry(uint32_t default_shards = 1)
      : default_shards_(default_shards) {}

  Counter& counter(const std::string& name, uint32_t shards = 0);
  Gauge& gauge(const std::string& name);
  LogHistogram& histogram(const std::string& name, uint32_t shards = 0,
                          uint32_t sub_bits = 2);

  // Flat JSON export: {"counters":{..},"gauges":{..},"histograms":{name:
  // {"count":..,"sum":..,"mean":..,"p50":..,"p99":..}}}.
  std::string to_json() const;
  // Human-readable dump (simctl --metrics).
  std::string text_dump() const;

 private:
  uint32_t default_shards_;
  mutable std::mutex mu_;  // registration and iteration only — never updates
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

// The named metric set the dispatch pipeline publishes, resolved once so
// the hot paths hold plain pointers. Naming: <stage>.<signal>.
struct PipelineMetrics {
  PipelineMetrics(Registry& reg, uint32_t workers);

  // Stage 1 — WST update path (EventLoopHooks, Fig. 9).
  Counter* wst_avail_updates;    // heartbeat stores
  Counter* wst_pending_updates;  // busy-count deltas applied
  Counter* wst_conn_updates;     // conn-count deltas applied

  // Stage 2 — cascading filter (Algo. 1).
  Counter* filter_runs;
  Counter* filter_after_time;    // survivor-count sums per stage; divide by
  Counter* filter_after_conn;    // filter_runs for the pass ratio (Fig. 14)
  Counter* filter_after_event;
  LogHistogram* filter_selected;  // survivors per run
  Counter* filter_low_survivor;   // selected < min_workers_for_dispatch:
                                  // the kernel program will fall back to hash

  // Stage 2 -> 3 — bitmap sync (decision publication).
  Counter* sync_published;
  Counter* sync_dropped;        // suppressed by fault injection / errors
  LogHistogram* sync_gap_ns;    // staleness: gap between a group's syncs

  // Stage 2 — scheduling fast path (DESIGN.md §8).
  Counter* sched_syncs_suppressed;  // M_sel stores skipped: bitmap unchanged
  Counter* sched_fast_path_ns;      // wall ns accumulated inside schedule()

  // Scheduling-policy framework (core/policy.h, DESIGN.md §12), indexed
  // by core::PolicyKind. publishes counts kernel-visible policy-state
  // publications (bitmap stores + aux-map refreshes); dispatches counts
  // sockets actually selected by that policy's program.
  Counter* policy_publishes[4];
  Counter* policy_dispatches[4];

  // Stage 3 — in-kernel dispatch (Algo. 2 at reuseport-select time).
  Counter* dispatch_picks;      // sharded by the *picked* worker
  Counter* dispatch_bpf;        // program selected a socket
  Counter* dispatch_fallback;   // program ran but declined (<=1 survivor)
  Counter* dispatch_hash;       // no program attached (plain reuseport)

  // Stage 3 — the eBPF execution plan (bpf/plan.h): runs of the dispatch
  // program and what its plan saved. Every run lands in slot
  // bpf::ExecTier::Elide (2); the four slots stay because the repository
  // benchmark reads all of bpf.tier0..3_dispatches.
  Counter* bpf_tier_dispatches[4];  // runs per bpf::ExecTier value
  Counter* bpf_fused_ops;           // superinstructions executed
  Counter* bpf_elided_checks;       // bounds checks proven away

  // netsim accept queues.
  Counter* accept_enqueued;     // sharded by owning worker
  Counter* accept_dropped;      // backlog overflow, by owning worker
  LogHistogram* accept_depth;   // queue depth observed at enqueue

  // L7 data plane (sim/data_plane.h): byte-level forwarding, backend
  // connection pool, and admission rate limiting. All zero when the
  // data plane is disabled.
  Counter* http_requests_forwarded;  // proxied to a backend, by worker
  Counter* http_bytes_zero_copied;   // forwarded by reference (splice)
  Counter* http_bytes_copied;        // forwarded by memcpy (oracle mode)
  Counter* pool_hits;                // backend connection reused
  Counter* pool_misses;              // new backend handshake
  Counter* pool_expiries;            // idle connection timed out
  Counter* ratelimit_drops;          // connections refused at admission
  Gauge* pool_occupancy;             // idle backend connections now
};

}  // namespace hermes::obs
