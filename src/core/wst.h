// Worker Status Table (WST): the lock-free shared-memory table at the heart
// of Hermes stage 1 (paper §4.1, §5.3.1).
//
// Layout and concurrency discipline follow the paper exactly:
//   * the table is partitioned by worker — each worker writes only its own
//     cache-line-aligned slot, so writers never contend, and each counter
//     update is a relaxed load and store rather than an atomic RMW;
//   * each metric is an independent atomic word: a reader may observe a
//     *set* of metrics mid-update (no seqlock, no reader/writer locks), but
//     never a torn individual value — the paper argues (§5.3.1) that
//     cross-metric inconsistency is harmless because the freshest values
//     best reflect runtime state;
//   * three metrics per worker: event-loop-entry timestamp ("avail"),
//     pending event count ("busy"), accumulated connections ("conn").
//
// The table lives in caller-provided memory (POSIX shm for real multi-
// process deployments — see shm/ShmRegion — or any in-process buffer for
// the simulator). It is a standard-layout POD of lock-free atomics, so
// attaching from another process that mapped the same bytes is sound.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "util/check.h"
#include "util/types.h"

namespace hermes::core {

struct alignas(64) WorkerSlot {
  // Nanosecond timestamp of the worker's latest event-loop entry
  // (Fig. 9 line 12: shm_avail_update).
  std::atomic<int64_t> loop_enter_ns{0};
  // Events returned by epoll_wait but not yet handled
  // (Fig. 9 lines 14/18: shm_busy_count(+n) / shm_busy_count(-1)).
  std::atomic<int64_t> pending_events{0};
  // Concurrent connections owned by this worker
  // (Fig. 9 lines 25/37: shm_conn_count(+/-1)).
  std::atomic<int64_t> connections{0};
  // Monotone count of completed event-loop iterations (scheduler call
  // frequency measurement, Fig. 14).
  std::atomic<uint64_t> loop_iterations{0};
};
static_assert(sizeof(WorkerSlot) == 64);
static_assert(std::atomic<int64_t>::is_always_lock_free);

// One consistent-enough snapshot row, as read by the scheduler.
struct WorkerSnapshot {
  int64_t loop_enter_ns = 0;
  int64_t pending_events = 0;
  int64_t connections = 0;
};

class WorkerStatusTable {
 public:
  struct alignas(64) Header {  // keeps the slot array cache-line aligned
    uint64_t magic = 0;
    uint32_t version = 0;
    uint32_t num_workers = 0;
  };
  static constexpr uint64_t kMagic = 0x48524d5357535431ull;  // "HRMSWST1"
  static constexpr uint32_t kVersion = 1;

  static size_t required_bytes(uint32_t num_workers) {
    return sizeof(Header) + static_cast<size_t>(num_workers) * sizeof(WorkerSlot);
  }

  // Placement-initialize a new table into `mem` (zeroed or not).
  static WorkerStatusTable init(void* mem, uint32_t num_workers);

  // Attach to a table previously init()ed in shared memory (validates the
  // header). Aborts on mismatch — attaching to garbage is unrecoverable.
  static WorkerStatusTable attach(void* mem);

  uint32_t num_workers() const { return header_->num_workers; }

  // ---- writer side (each worker touches only its own slot) -------------
  // One writer per slot, so the counters are a relaxed load plus a relaxed
  // store, not a lock-prefixed fetch_add: no other writer can interleave,
  // and readers still see untorn words (the obs::Counter::add discipline).
  // Two threads writing one slot would lose updates.
  void update_avail(WorkerId w, SimTime now) {
    WorkerSlot& s = slot(w);
    s.loop_enter_ns.store(now.ns(), std::memory_order_release);
    bump(s.loop_iterations, uint64_t{1});
  }
  void add_pending(WorkerId w, int64_t delta) {
    bump(slot(w).pending_events, delta);
  }
  void add_connections(WorkerId w, int64_t delta) {
    bump(slot(w).connections, delta);
  }

  // ---- reader side (any worker's embedded scheduler) -------------------
  WorkerSnapshot read(WorkerId w) const {
    const WorkerSlot& s = slot(w);
    return WorkerSnapshot{
        s.loop_enter_ns.load(std::memory_order_acquire),
        s.pending_events.load(std::memory_order_relaxed),
        s.connections.load(std::memory_order_relaxed),
    };
  }
  // Single-pass SoA gather of `count` consecutive slots starting at `base`
  // into caller-provided arrays (the scheduling fast path, DESIGN.md §8).
  // Memory orders match read(): acquire on the heartbeat, relaxed on the
  // counts — the same per-metric atomic discipline, one slot touch each.
  void gather(WorkerId base, uint32_t count, int64_t* loop_enter_ns,
              int64_t* pending_events, int64_t* connections) const {
    for (uint32_t i = 0; i < count; ++i) {
      const WorkerSlot& s = slot(base + i);
      loop_enter_ns[i] = s.loop_enter_ns.load(std::memory_order_acquire);
      pending_events[i] = s.pending_events.load(std::memory_order_relaxed);
      connections[i] = s.connections.load(std::memory_order_relaxed);
    }
  }

  int64_t connections(WorkerId w) const {
    return slot(w).connections.load(std::memory_order_relaxed);
  }
  int64_t pending_events(WorkerId w) const {
    return slot(w).pending_events.load(std::memory_order_relaxed);
  }
  uint64_t loop_iterations(WorkerId w) const {
    return slot(w).loop_iterations.load(std::memory_order_relaxed);
  }

 private:
  WorkerStatusTable(Header* h, WorkerSlot* slots)
      : header_(h), slots_(slots) {}

  // Wrapping add, as fetch_add is; only the slot's own worker calls it.
  template <typename T>
  static void bump(std::atomic<T>& v, T delta) {
    using U = std::make_unsigned_t<T>;
    v.store(static_cast<T>(static_cast<U>(v.load(std::memory_order_relaxed)) +
                           static_cast<U>(delta)),
            std::memory_order_relaxed);
  }

  WorkerSlot& slot(WorkerId w) {
    HERMES_DCHECK(w < header_->num_workers);
    return slots_[w];
  }
  const WorkerSlot& slot(WorkerId w) const {
    HERMES_DCHECK(w < header_->num_workers);
    return slots_[w];
  }

  Header* header_;
  WorkerSlot* slots_;
};

}  // namespace hermes::core
