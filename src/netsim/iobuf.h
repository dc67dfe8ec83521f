// Ref-counted segment/chain byte buffers for the L7 data plane.
//
// Payload bytes admitted on the client side of the proxy live in
// IoSegment blocks; forwarding to the backend side appends *references*
// to those segments (splice-style), so the proxy path itself performs
// zero memcpy. A copying mode is retained by the callers (ConnState /
// DataPlane) as the differential oracle: both modes must produce
// bit-identical byte streams, which IoChain::digest() checks cheaply.
//
// Concurrency: the simulator is single-threaded by design (workers are
// simulated actors inside one event loop), so refcounts are plain
// uint32_t, not atomics. A real kernel-bypass data plane would pin a
// chain to one core the same way.
//
// Mutation rule: segment bytes are append-only. A chain may memcpy new
// bytes into its tail segment only while it holds the *sole* reference
// to that segment and the tail slice ends exactly at the segment's
// write frontier; bytes that any other slice can see are immutable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hermes::netsim {

// Process-wide allocation/copy accounting. Benches reset this around a
// timed region to prove the zero-copy path performs no forwarding
// memcpy; tests use it to check segment recycling.
struct IoBufStats {
  uint64_t segments_allocated = 0;
  uint64_t segments_freed = 0;
  uint64_t segment_bytes_allocated = 0;
  uint64_t bytes_copied = 0;      // bytes memcpy'd into segments
  uint64_t bytes_referenced = 0;  // bytes appended by reference (no copy)

  uint64_t segments_live() const {
    return segments_allocated - segments_freed;
  }
  void reset() { *this = IoBufStats{}; }
};

inline IoBufStats& iobuf_stats() {
  static IoBufStats s;
  return s;
}

// Streaming 64-bit digest: the xxHash64 construction. Four independent
// multiply-rotate lanes consume 32-byte stripes; a <=31-byte carry lets a
// stripe span update() calls (slice boundaries). finish() folds in the
// carried tail and the total length, then avalanches. The value depends
// only on (seed, bytes), never on how the bytes were split.
class StreamDigest {
 public:
  explicit StreamDigest(uint64_t seed = 0)
      : seed_(seed), v_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1} {}

  void update(const char* p, size_t n) {
    if (n == 0) return;
    total_ += n;
    if (carry_len_ + n < kStripe) {
      std::memcpy(carry_ + carry_len_, p, n);
      carry_len_ += static_cast<uint32_t>(n);
      return;
    }
    if (carry_len_ > 0) {
      const size_t take = kStripe - carry_len_;
      std::memcpy(carry_ + carry_len_, p, take);
      p += take;
      n -= take;
      carry_len_ = 0;
      stripes(carry_, kStripe);
    }
    const size_t body = n & ~(kStripe - 1);
    stripes(p, body);
    carry_len_ = static_cast<uint32_t>(n - body);
    std::memcpy(carry_, p + body, carry_len_);
  }

  uint64_t finish() const {
    uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(v_[0], 1) + std::rotl(v_[1], 7) + std::rotl(v_[2], 12) +
          std::rotl(v_[3], 18);
      for (const uint64_t v : v_) h = (h ^ round(0, v)) * kP1 + kP4;
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    const char* p = carry_;
    uint32_t n = carry_len_;
    for (; n >= 8; p += 8, n -= 8) {
      h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
    }
    if (n >= 4) {
      h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) {
      h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kP5), 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr size_t kStripe = 32;
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

  static uint64_t round(uint64_t acc, uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  }
  // Little-endian loads, so the digest is the same on every host.
  static uint64_t load64(const char* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  static uint64_t load32(const char* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap32(v);
    }
    return v;
  }

  // Consumes n bytes (a multiple of kStripe) with the lanes in registers.
  void stripes(const char* p, size_t n) {
    uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
    for (const char* const end = p + n; p != end; p += kStripe) {
      v0 = round(v0, load64(p));
      v1 = round(v1, load64(p + 8));
      v2 = round(v2, load64(p + 16));
      v3 = round(v3, load64(p + 24));
    }
    v_[0] = v0;
    v_[1] = v1;
    v_[2] = v2;
    v_[3] = v3;
  }

  uint64_t seed_;
  uint64_t v_[4];
  uint64_t total_ = 0;
  uint32_t carry_len_ = 0;
  char carry_[kStripe];
};

class SegRef;

// One refcounted block of bytes. Header and payload share a single
// allocation; the payload trails the header.
class IoSegment {
 public:
  static constexpr uint32_t kDefaultCapacity = 4096;

  static SegRef alloc(uint32_t capacity = kDefaultCapacity);

  char* data() { return reinterpret_cast<char*>(this + 1); }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return cap_; }
  uint32_t avail() const { return cap_ - size_; }
  uint32_t refs() const { return refs_; }

  // Appends up to n bytes into unused capacity; returns bytes written.
  // Written bytes become immutable once any other reference can see
  // them — callers enforce the sole-reference rule (see file comment).
  uint32_t append(const void* src, uint32_t n) {
    const uint32_t take = n < avail() ? n : avail();
    std::memcpy(data() + size_, src, take);
    size_ += take;
    return take;
  }

 private:
  friend class SegRef;
  explicit IoSegment(uint32_t cap) : cap_(cap) {}
  ~IoSegment() = default;

  void retain() { ++refs_; }
  void release() {
    HERMES_DCHECK(refs_ > 0);
    if (--refs_ == 0) {
      ++iobuf_stats().segments_freed;
      this->~IoSegment();
      ::operator delete(static_cast<void*>(this));
    }
  }

  uint32_t refs_ = 1;
  uint32_t size_ = 0;
  uint32_t cap_;
};

// Owning handle to an IoSegment (intrusive refcount).
class SegRef {
 public:
  SegRef() = default;
  ~SegRef() { reset(); }

  SegRef(const SegRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->retain();
  }
  SegRef& operator=(const SegRef& o) {
    if (this != &o) {
      if (o.p_ != nullptr) o.p_->retain();
      reset();
      p_ = o.p_;
    }
    return *this;
  }
  SegRef(SegRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  SegRef& operator=(SegRef&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }

  IoSegment* get() const { return p_; }
  IoSegment* operator->() const { return p_; }
  IoSegment& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  bool operator==(const SegRef& o) const { return p_ == o.p_; }

  void reset() {
    if (p_ != nullptr) {
      p_->release();
      p_ = nullptr;
    }
  }

 private:
  friend class IoSegment;
  explicit SegRef(IoSegment* p) : p_(p) {}  // adopts the initial ref
  IoSegment* p_ = nullptr;
};

inline SegRef IoSegment::alloc(uint32_t capacity) {
  HERMES_DCHECK(capacity > 0);
  void* raw = ::operator new(sizeof(IoSegment) + capacity);
  auto* seg = new (raw) IoSegment(capacity);
  ++iobuf_stats().segments_allocated;
  iobuf_stats().segment_bytes_allocated += capacity;
  return SegRef(seg);
}

// A view of [off, off+len) within one segment, holding a reference.
struct IoSlice {
  SegRef seg;
  uint32_t off = 0;
  uint32_t len = 0;

  std::string_view view() const {
    return seg ? std::string_view(seg->data() + off, len) : std::string_view();
  }
};

// An ordered chain of slices: the unit of buffered bytes on either side
// of the proxy. append_ref() is the zero-copy path; append_copy() is
// both the admission path (bytes entering the simulated machine) and
// the copy-oracle forwarding path.
class IoChain {
 public:
  IoChain() = default;
  IoChain(IoChain&&) noexcept = default;
  IoChain& operator=(IoChain&&) noexcept = default;
  IoChain(const IoChain&) = delete;
  IoChain& operator=(const IoChain&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_slices() const { return slices_.size(); }
  const std::vector<IoSlice>& slices() const { return slices_; }

  void clear() {
    slices_.clear();
    size_ = 0;
  }

  // Zero-copy append: shares [off, off+len) of seg. Coalesces with the
  // tail slice when contiguous in the same segment.
  void append_ref(const SegRef& seg, uint32_t off, uint32_t len) {
    if (len == 0) return;
    HERMES_DCHECK(seg && off + len <= seg->size());
    iobuf_stats().bytes_referenced += len;
    size_ += len;
    if (!slices_.empty()) {
      IoSlice& tail = slices_.back();
      if (tail.seg == seg && tail.off + tail.len == off) {
        tail.len += len;
        return;
      }
    }
    slices_.push_back(IoSlice{seg, off, len});
  }

  void append_ref(const IoSlice& s) { append_ref(s.seg, s.off, s.len); }

  // Indexes over a slice count taken up front, so appending a chain to
  // itself sees only the original slices and survives slices_ growing.
  void append_ref(const IoChain& other) {
    const size_t n = other.slices_.size();
    for (size_t i = 0; i < n; ++i) append_ref(other.slices_[i]);
  }

  // Copying append: memcpy into this chain's writable tail, allocating
  // segments as needed. Counted in iobuf_stats().bytes_copied.
  void append_copy(const void* src, size_t n) {
    const char* p = static_cast<const char*>(src);
    iobuf_stats().bytes_copied += n;
    size_ += n;
    while (n > 0) {
      IoSegment* tail = writable_tail();
      if (tail == nullptr) {
        const uint32_t cap =
            n > IoSegment::kDefaultCapacity
                ? static_cast<uint32_t>(
                      n < UINT32_MAX ? n : IoSegment::kDefaultCapacity)
                : IoSegment::kDefaultCapacity;
        SegRef seg = IoSegment::alloc(cap);
        slices_.push_back(IoSlice{std::move(seg), 0, 0});
        tail = slices_.back().seg.get();
      }
      const uint32_t wrote =
          tail->append(p, n < UINT32_MAX ? static_cast<uint32_t>(n)
                                         : UINT32_MAX - 1);
      slices_.back().len += wrote;
      p += wrote;
      n -= wrote;
    }
  }

  void append_copy(std::string_view s) { append_copy(s.data(), s.size()); }

  // Appends `other` either by reference (zero-copy) or by deep copy
  // (the oracle), so call sites read as one line with a mode flag.
  void append(const IoChain& other, bool by_ref) {
    if (by_ref) {
      append_ref(other);
    } else {
      const size_t n = other.slices_.size();
      for (size_t i = 0; i < n; ++i) append_copy(other.slices_[i].view());
    }
  }

  // Drops n bytes from the front (reader side).
  void consume(size_t n) {
    HERMES_DCHECK(n <= size_);
    size_ -= n;
    size_t dropped = 0;
    while (n > 0) {
      IoSlice& head = slices_[dropped];
      if (head.len <= n) {
        n -= head.len;
        head.seg.reset();
        ++dropped;
      } else {
        head.off += static_cast<uint32_t>(n);
        head.len -= static_cast<uint32_t>(n);
        n = 0;
      }
    }
    if (dropped > 0) {
      slices_.erase(slices_.begin(),
                    slices_.begin() + static_cast<std::ptrdiff_t>(dropped));
    }
  }

  void copy_out(size_t off, size_t n, char* dst) const {
    HERMES_DCHECK(off + n <= size_);
    for (const IoSlice& s : slices_) {
      if (n == 0) break;
      if (off >= s.len) {
        off -= s.len;
        continue;
      }
      const size_t take = (s.len - off) < n ? (s.len - off) : n;
      std::memcpy(dst, s.seg->data() + s.off + off, take);
      dst += take;
      n -= take;
      off = 0;
    }
  }

  std::string to_string() const {
    std::string out(size_, '\0');
    copy_out(0, size_, out.data());
    return out;
  }

  // StreamDigest over all bytes in order; the differential-oracle
  // checksum. Equal to digest_bytes() of the flattened chain.
  uint64_t digest(uint64_t seed = 0) const {
    StreamDigest d(seed);
    for (const IoSlice& s : slices_) d.update(s.seg->data() + s.off, s.len);
    return d.finish();
  }

 private:
  // The tail segment is writable only while this chain's tail slice is
  // the sole reference to it and ends at its write frontier.
  IoSegment* writable_tail() {
    if (slices_.empty()) return nullptr;
    IoSlice& tail = slices_.back();
    IoSegment* seg = tail.seg.get();
    if (seg->refs() != 1) return nullptr;
    if (tail.off + tail.len != seg->size()) return nullptr;
    if (seg->avail() == 0) return nullptr;
    return seg;
  }

  std::vector<IoSlice> slices_;
  size_t size_ = 0;
};

inline uint64_t digest_bytes(std::string_view s, uint64_t seed = 0) {
  StreamDigest d(seed);
  d.update(s.data(), s.size());
  return d.finish();
}

}  // namespace hermes::netsim
