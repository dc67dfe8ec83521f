// Counting replacement for the global operator new/delete (the technique
// bench/proxy_path.cc uses). The benchmark is single-threaded, so plain
// counters suffice. The workloads read deltas around their measured
// window for sim.allocs_per_req and sim.alloc_bytes_per_req; the live-byte
// high-water mark is peak_heap_mb, which unlike the resident-set peak
// repeats exactly for one seed.
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

uint64_t g_calls = 0;
uint64_t g_bytes = 0;
uint64_t g_live = 0;
uint64_t g_peak = 0;

void* counted(void* p, std::size_t n) {
  if (p == nullptr) throw std::bad_alloc{};
  ++g_calls;
  g_bytes += n;
  g_live += malloc_usable_size(p);
  if (g_live > g_peak) g_peak = g_live;
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= malloc_usable_size(p);
  std::free(p);
}

void* aligned(std::size_t n, std::align_val_t al) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    p = nullptr;
  }
  return counted(p, n);
}

}  // namespace

namespace perfbench {
AllocCount alloc_count() { return AllocCount{g_calls, g_bytes, g_peak}; }
}  // namespace perfbench

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1), n); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) { return aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return aligned(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
