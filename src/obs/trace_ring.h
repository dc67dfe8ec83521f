// Per-worker binary trace rings: fixed-size, overwrite-oldest records of
// dispatch decisions and filter verdicts, with seqlock-style lock-free
// readers (validate-after-copy, discard possibly-overwritten records).
//
// One ring per worker, single writer each (the same partitioning as the
// WST), so writes are two relaxed stores per word plus one release store
// of the head — cheap enough to leave on in production, which is the whole
// point: when a dispatch decision looks wrong, the evidence is already in
// the ring.
//
// Readers never block writers. A reader copies the window, re-reads the
// head, and drops any record whose slot could have been re-used during the
// copy (index <= head' - capacity). Record words are relaxed atomics, so a
// discarded record is the worst case — never a torn one. The discard is
// conservative by exactly one slot: once the ring has wrapped, a snapshot
// returns at most capacity-1 records, because the oldest slot is the one
// the writer may already be reusing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace hermes::obs {

enum class TraceType : uint16_t {
  Dispatch = 1,     // kernel pick:   a=picked worker, b=skb hash, c=port
  FilterVerdict,    // cascade run:   a=selected, b=bitmap,
                    //                c=after_time<<42 | after_conn<<21 | after_event
  BitmapSync,       // publication:   a=group, b=bitmap, c=gap since last sync (ns)
  Accept,           // SYN enqueued:  a=port, b=conn id, c=queue depth after push
  Drop,             // SYN dropped:   a=port, b=0, c=queue depth (=backlog)
  RequestDone,      // request served: a=tenant, b=conn id, c=latency ns
};

const char* to_string(TraceType t);

struct TraceEvent {
  int64_t t_ns = 0;
  uint16_t type = 0;
  uint16_t worker = 0;
  uint32_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};
static_assert(sizeof(TraceEvent) == 32);

class TraceRing {
 public:
  // Capacity in records; rounded up to a power of two.
  explicit TraceRing(size_t capacity = 4096);

  size_t capacity() const { return cap_; }
  uint64_t written() const { return head_.load(std::memory_order_relaxed); }

  // Single-writer append; overwrites the oldest record when full.
  void write(const TraceEvent& ev) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    const size_t base = (h & (cap_ - 1)) * kWords;
    words_[base + 0].store(static_cast<uint64_t>(ev.t_ns),
                           std::memory_order_relaxed);
    words_[base + 1].store(static_cast<uint64_t>(ev.type) |
                               (static_cast<uint64_t>(ev.worker) << 16) |
                               (static_cast<uint64_t>(ev.a) << 32),
                           std::memory_order_relaxed);
    words_[base + 2].store(ev.b, std::memory_order_relaxed);
    words_[base + 3].store(ev.c, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  // Consistent oldest-to-newest view; safe against a live writer.
  std::vector<TraceEvent> snapshot() const;

 private:
  static constexpr size_t kWords = 4;

  size_t cap_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  std::atomic<uint64_t> head_{0};
};

// One ring per worker plus convenience write/merge helpers.
class TraceBuffer {
 public:
  TraceBuffer(uint32_t workers, size_t capacity = 4096);

  uint32_t workers() const { return static_cast<uint32_t>(rings_.size()); }
  TraceRing& ring(WorkerId w) {
    HERMES_DCHECK(w < rings_.size());
    return *rings_[w];
  }

  void write(WorkerId worker, TraceType type, SimTime now, uint32_t a,
             uint64_t b, uint64_t c) {
    if (worker >= rings_.size()) worker = 0;  // kernel-side / unowned events
    TraceEvent ev;
    ev.t_ns = now.ns();
    ev.type = static_cast<uint16_t>(type);
    ev.worker = static_cast<uint16_t>(worker);
    ev.a = a;
    ev.b = b;
    ev.c = c;
    rings_[worker]->write(ev);
  }

  // All rings' snapshots merged and sorted by (time, worker).
  std::vector<TraceEvent> merged_snapshot() const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

// ---- exporters ---------------------------------------------------------
// chrome://tracing / Perfetto "trace event format": a {"traceEvents":[...]}
// object of instant events, tid = worker. Load via chrome://tracing "Load"
// or ui.perfetto.dev.
std::string to_chrome_trace(const std::vector<TraceEvent>& events);
// One line per event (simctl --trace-dump).
std::string to_text(const std::vector<TraceEvent>& events);

}  // namespace hermes::obs
