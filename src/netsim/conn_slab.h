// SoA connection arena: per-connection state in struct-of-arrays slabs with
// generation-tagged handles (Concury-style, see PAPERS.md).
//
// At fleet scale (millions of concurrent flows) one heap object per
// connection is the dominant allocator load and the worst cache layout for
// whole-fleet scans. ConnSlab instead stores each field as a column inside
// fixed-size chunks (64 Ki slots): allocation is a free-list pop, close is a
// push plus a generation bump, and fleet-wide scans (imbalance tables, PCC
// audits) stream one column at a time. Chunks never move once allocated, so
// a Connection view stays cheap: (slab, slot, generation).
//
// The generation tag is the use-after-free guard: destroying a slot
// increments its generation, so every outstanding view of the old
// connection goes invalid atomically — a stale view can never read or
// mutate the slot's next occupant. Debug builds abort on stale access;
// release builds make validity checkable via Connection::valid().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/four_tuple.h"
#include "util/check.h"
#include "util/types.h"

namespace hermes::netsim {

// A connection's id is its slab handle: (generation << 32) | (slot + 1).
// 0 means "no connection"; the first ids a fresh slab hands out are 1, 2,
// 3, ..., and an id stays unique until its slot's 32-bit generation wraps.
// Side tables keyed by id index rows by slot (ConnTable, conn_table.h).
using ConnId = uint64_t;

inline constexpr ConnId conn_id_of(uint32_t slot, uint32_t gen) {
  return (uint64_t{gen} << 32) | (uint64_t{slot} + 1);
}
// The slot an id names; 0 (no connection) maps past every real slot.
inline constexpr uint32_t slot_of(ConnId id) {
  return static_cast<uint32_t>(id) - 1;
}

enum class ConnState : uint8_t {
  Queued,       // handshake done, waiting in an accept queue
  Accepted,     // dequeued by a worker via accept()
  Closed,
};

class ConnSlab;

// A generation-checked view of one slab row — the value type the rest of
// the stack passes around where it used to pass `Connection*`. 16 bytes,
// trivially copyable; a default-constructed view is invalid (the old
// nullptr). Accessors are index loads; debug builds verify the generation
// on every access so use-after-close aborts instead of aliasing whatever
// connection reused the slot.
class Connection {
 public:
  Connection() = default;

  bool valid() const;
  explicit operator bool() const { return valid(); }
  friend bool operator==(const Connection&, const Connection&) = default;

  ConnId id() const;
  const FourTuple& tuple() const;
  PortId port() const;
  TenantId tenant() const;
  ConnState state() const;
  WorkerId owner() const;
  SimTime created_at() const;
  void set_state(ConnState s) const;
  void set_owner(WorkerId w) const;

  // Slab row index; stable for the connection's lifetime. Usable as a key
  // into dense side tables (the slot is not reused while the conn lives).
  uint32_t slot() const { return slot_; }

 private:
  friend class ConnSlab;
  Connection(ConnSlab* slab, uint32_t slot, uint32_t gen)
      : slab_(slab), slot_(slot), gen_(gen) {}

  ConnSlab* slab_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class ConnSlab {
 public:
  static constexpr uint32_t kChunkBits = 16;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;  // 65536 rows

  // One arena chunk: every connection field as a parallel column. Chunks
  // are heap-allocated once and never moved or freed until the slab dies.
  struct Chunk {
    FourTuple tuple[kChunkSlots];
    SimTime created_at[kChunkSlots];
    WorkerId owner[kChunkSlots];
    TenantId tenant[kChunkSlots];
    uint32_t gen[kChunkSlots];
    PortId port[kChunkSlots];
    ConnState state[kChunkSlots];
  };

  ConnSlab() = default;
  ConnSlab(const ConnSlab&) = delete;
  ConnSlab& operator=(const ConnSlab&) = delete;

  // Allocate a row (reusing the most recently freed slot first) and
  // initialize it Queued/unowned. O(1); grows by one chunk when full.
  Connection create(const FourTuple& tuple, PortId port, TenantId tenant,
                    SimTime now) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = used_;
      if ((slot >> kChunkBits) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
      ++used_;
    }
    Chunk& ch = *chunks_[slot >> kChunkBits];
    const uint32_t off = slot & (kChunkSlots - 1);
    ch.tuple[off] = tuple;
    ch.created_at[off] = now;
    ch.owner[off] = kInvalidWorker;
    ch.tenant[off] = tenant;
    ch.port[off] = port;
    ch.state[off] = ConnState::Queued;
    ++live_;
    return Connection{this, slot, ch.gen[off]};
  }

  // Close a connection: generation bump invalidates every outstanding view,
  // then the slot goes back on the free list. Double-destroy (a stale view)
  // is a hard error in all build types.
  void destroy(Connection c) {
    HERMES_CHECK_MSG(c.slab_ == this && c.valid(),
                     "destroy of invalid/stale connection view");
    Chunk& ch = *chunks_[c.slot_ >> kChunkBits];
    const uint32_t off = c.slot_ & (kChunkSlots - 1);
    ch.state[off] = ConnState::Closed;
    ++ch.gen[off];
    free_.push_back(c.slot_);
    --live_;
  }

  uint64_t live() const { return live_; }
  uint32_t used() const { return used_; }  // high-water row count
  size_t chunk_count() const { return chunks_.size(); }
  const Chunk& chunk(size_t i) const { return *chunks_[i]; }

  // Visit every live connection in slot order. `f` takes a Connection view.
  // Column scan, no pointer chasing; freed rows are state == Closed.
  template <class F>
  void for_each_live(F&& f) {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk& ch = *chunks_[c];
      const uint32_t base = static_cast<uint32_t>(c) << kChunkBits;
      const uint32_t n = std::min(kChunkSlots, used_ - base);
      for (uint32_t off = 0; off < n; ++off) {
        if (ch.state[off] != ConnState::Closed) {
          f(Connection{this, base + off, ch.gen[off]});
        }
      }
    }
  }

 private:
  friend class Connection;

  const Chunk& chunk_of(uint32_t slot) const {
    return *chunks_[slot >> kChunkBits];
  }
  Chunk& chunk_of(uint32_t slot) { return *chunks_[slot >> kChunkBits]; }
  static uint32_t off_of(uint32_t slot) { return slot & (kChunkSlots - 1); }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t used_ = 0;
  uint64_t live_ = 0;
};

inline bool Connection::valid() const {
  return slab_ != nullptr &&
         slab_->chunk_of(slot_).gen[ConnSlab::off_of(slot_)] == gen_;
}

inline ConnId Connection::id() const {
  HERMES_DCHECK(valid());
  return conn_id_of(slot_, gen_);
}
inline const FourTuple& Connection::tuple() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).tuple[ConnSlab::off_of(slot_)];
}
inline PortId Connection::port() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).port[ConnSlab::off_of(slot_)];
}
inline TenantId Connection::tenant() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).tenant[ConnSlab::off_of(slot_)];
}
inline ConnState Connection::state() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).state[ConnSlab::off_of(slot_)];
}
inline WorkerId Connection::owner() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).owner[ConnSlab::off_of(slot_)];
}
inline SimTime Connection::created_at() const {
  HERMES_DCHECK(valid());
  return slab_->chunk_of(slot_).created_at[ConnSlab::off_of(slot_)];
}
inline void Connection::set_state(ConnState s) const {
  HERMES_DCHECK(valid());
  slab_->chunk_of(slot_).state[ConnSlab::off_of(slot_)] = s;
}
inline void Connection::set_owner(WorkerId w) const {
  HERMES_DCHECK(valid());
  slab_->chunk_of(slot_).owner[ConnSlab::off_of(slot_)] = w;
}

}  // namespace hermes::netsim
