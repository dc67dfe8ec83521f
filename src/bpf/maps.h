// eBPF map objects shared between "kernel" programs and userspace.
//
// Two map types are enough for Hermes (paper §5.4):
//   * ArrayMap (BPF_MAP_TYPE_ARRAY): fixed-size elements addressed by u32
//     key. Hermes stores the 64-bit worker-selection bitmap in a 1-element
//     array of u64. Like the kernel, 8-byte aligned u64 slots support atomic
//     load/store, which is what makes the lock-free userspace->kernel
//     decision sync work.
//   * ReuseportSockArray (BPF_MAP_TYPE_REUSEPORT_SOCKARRAY): worker id ->
//     socket cookie, consumed by bpf_sk_select_reuseport().
//
// Maps are identified inside a program by a small slot index bound at load
// time (Vm::load), mirroring map-fd relocation in libbpf.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/check.h"

namespace hermes::bpf {

enum class MapType { Array, ReuseportSockArray };

class Map {
 public:
  Map(MapType type, uint32_t max_entries, uint32_t value_size)
      : type_(type), max_entries_(max_entries), value_size_(value_size) {}
  virtual ~Map() = default;

  MapType type() const { return type_; }
  uint32_t max_entries() const { return max_entries_; }
  uint32_t value_size() const { return value_size_; }

 private:
  MapType type_;
  uint32_t max_entries_;
  uint32_t value_size_;
};

class ArrayMap final : public Map {
 public:
  ArrayMap(uint32_t max_entries, uint32_t value_size)
      : Map(MapType::Array, max_entries, value_size),
        storage_(static_cast<size_t>(max_entries) * round8(value_size)) {}

  // Kernel-side: pointer to the element, or nullptr if key out of range.
  // (Array maps never return null for valid keys; programs must still
  // null-check per the verifier, as in real eBPF.)
  uint8_t* lookup(uint32_t key) {
    if (key >= max_entries()) return nullptr;
    return storage_.data() + static_cast<size_t>(key) * stride();
  }

  // Userspace-side API (the bpf() syscall surface).
  bool update(uint32_t key, const void* value) {
    uint8_t* slot = lookup(key);
    if (slot == nullptr) return false;
    std::memcpy(slot, value, value_size());
    return true;
  }
  bool read(uint32_t key, void* out) {
    uint8_t* slot = lookup(key);
    if (slot == nullptr) return false;
    std::memcpy(out, slot, value_size());
    return true;
  }

  // Lock-free u64 element access: this is the path Hermes uses for the
  // selection bitmap (single atomic 8-byte store/load, no locking).
  void store_u64(uint32_t key, uint64_t v,
                 std::memory_order order = std::memory_order_release) {
    HERMES_CHECK(value_size() == sizeof(uint64_t));
    uint8_t* slot = lookup(key);
    HERMES_CHECK(slot != nullptr);
    reinterpret_cast<std::atomic<uint64_t>*>(slot)->store(v, order);
  }
  uint64_t load_u64(uint32_t key,
                    std::memory_order order = std::memory_order_acquire) {
    HERMES_CHECK(value_size() == sizeof(uint64_t));
    uint8_t* slot = lookup(key);
    HERMES_CHECK(slot != nullptr);
    return reinterpret_cast<std::atomic<uint64_t>*>(slot)->load(order);
  }

  // Lock-free u64 access to word `word` INSIDE element `key`'s value —
  // how userspace publishes multi-word policy state (core/policy.h aux
  // maps) that a dispatch program reads concurrently. Same single
  // 8-byte-atomic contract as store_u64/load_u64, per word; cross-word
  // consistency is the policy's problem (every shipped policy tolerates
  // word-level staleness by design).
  void store_word_u64(uint32_t key, uint32_t word, uint64_t v,
                      std::memory_order order = std::memory_order_release) {
    HERMES_CHECK(static_cast<size_t>(word + 1) * 8 <= stride());
    uint8_t* slot = lookup(key);
    HERMES_CHECK(slot != nullptr);
    reinterpret_cast<std::atomic<uint64_t>*>(slot + size_t{word} * 8)
        ->store(v, order);
  }
  uint64_t load_word_u64(uint32_t key, uint32_t word,
                         std::memory_order order = std::memory_order_acquire) {
    HERMES_CHECK(static_cast<size_t>(word + 1) * 8 <= stride());
    uint8_t* slot = lookup(key);
    HERMES_CHECK(slot != nullptr);
    return reinterpret_cast<std::atomic<uint64_t>*>(slot + size_t{word} * 8)
        ->load(order);
  }

  // Entire backing store, for VM pointer validation.
  uint8_t* storage_base() { return storage_.data(); }
  size_t storage_bytes() const { return storage_.size(); }
  size_t stride() const { return round8(value_size()); }

 private:
  static size_t round8(uint32_t n) { return (n + 7u) & ~7u; }
  std::vector<uint8_t> storage_;
};

// Socket cookies are opaque u64 handles; netsim registers its reuseport
// sockets here and resolves cookies back to sockets after program exit.
inline constexpr uint64_t kNoSocket = ~0ull;

class ReuseportSockArray final : public Map {
 public:
  explicit ReuseportSockArray(uint32_t max_entries)
      : Map(MapType::ReuseportSockArray, max_entries, sizeof(uint64_t)),
        slots_(max_entries) {
    for (auto& s : slots_) s.store(kNoSocket, std::memory_order_relaxed);
  }

  bool update(uint32_t key, uint64_t socket_cookie) {
    if (key >= max_entries()) return false;
    slots_[key].store(socket_cookie, std::memory_order_release);
    return true;
  }
  bool remove(uint32_t key) {
    if (key >= max_entries()) return false;
    slots_[key].store(kNoSocket, std::memory_order_release);
    return true;
  }
  uint64_t get(uint32_t key) const {
    if (key >= max_entries()) return kNoSocket;
    return slots_[key].load(std::memory_order_acquire);
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
};

// Tag-checked downcasts for the dispatch hot path. Both concrete map
// classes are final, so a MapType check licenses a static_cast — no RTTI
// lookup per dispatch.
inline ArrayMap* as_array_map(Map* m) {
  return m != nullptr && m->type() == MapType::Array ? static_cast<ArrayMap*>(m)
                                                     : nullptr;
}
inline ReuseportSockArray* as_sock_array(Map* m) {
  return m != nullptr && m->type() == MapType::ReuseportSockArray
             ? static_cast<ReuseportSockArray*>(m)
             : nullptr;
}

}  // namespace hermes::bpf
