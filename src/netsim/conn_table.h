// ConnTable<T>: per-connection side state in rows indexed by slab slot.
//
// A ConnId is its connection's slab handle (conn_slab.h), so a table keyed
// by id needs no hashing: the id's low half names the row, and the row
// keeps the full id it was filled for. find() matches that stored id, so
// an id from before a slot was reused misses instead of aliasing the new
// occupant, and so do ids that name no slab row at all (0, or LbDevice's
// synthetic probe ids).
//
// Rows live in fixed-size chunks that never move, so a T* stays valid
// until its row is erased and T need not be movable. Rows grow to the
// slab's high-water slot, one chunk at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "netsim/conn_slab.h"
#include "util/check.h"

namespace hermes::netsim {

template <class T>
class ConnTable {
 public:
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkRows = 1u << kChunkBits;

  T* find(ConnId id) {
    Row* r = row(slot_of(id));
    return r != nullptr && r->id == id ? &*r->val : nullptr;
  }

  // Fills id's row, which must be empty: a live connection owns its slot.
  template <class... Args>
  T& emplace(ConnId id, Args&&... args) {
    const uint32_t slot = slot_of(id);
    while ((slot >> kChunkBits) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<Row[]>(kChunkRows));
    }
    Row& r = *row(slot);
    HERMES_CHECK_MSG(!r.val.has_value(), "ConnTable row already occupied");
    r.val.emplace(std::forward<Args>(args)...);
    r.id = id;
    ++size_;
    return *r.val;
  }

  // Empties id's row; false if id is not in the table.
  bool erase(ConnId id) {
    Row* r = row(slot_of(id));
    if (r == nullptr || r->id != id) return false;
    r->val.reset();
    r->id = 0;
    --size_;
    return true;
  }

  size_t size() const { return size_; }

  // Visits every filled row in slot order as f(ConnId, T&). `f` must not
  // emplace or erase.
  template <class F>
  void for_each(F&& f) {
    for (const auto& chunk : chunks_) {
      for (uint32_t i = 0; i < kChunkRows; ++i) {
        Row& r = chunk[i];
        if (r.id != 0) f(r.id, *r.val);
      }
    }
  }

 private:
  struct Row {
    ConnId id = 0;  // 0 while empty
    std::optional<T> val;
  };

  Row* row(uint32_t slot) {
    const size_t c = slot >> kChunkBits;
    return c < chunks_.size() ? &chunks_[c][slot & (kChunkRows - 1)]
                              : nullptr;
  }

  std::vector<std::unique_ptr<Row[]>> chunks_;
  size_t size_ = 0;
};

}  // namespace hermes::netsim
