// Shared pieces of the repository benchmark: wall-clock helpers, the
// allocation counter, a stable digest, exact quantiles, and the ordered
// metric report printed as the run's last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Heap allocations made through operator new since process start
// (alloc_shim.cc). Callers take deltas around the window they measure.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t peak_live_bytes = 0;  // high-water mark of live heap bytes
};
AllocCount alloc_count();

// FNV-1a over 64-bit words: the simulated-result fingerprint that every
// repeat of one seed must reproduce exactly.
class Digest {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Exact quantile (linear interpolation between order statistics); the
// vector is sorted in place. Returns 0 for an empty vector.
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// Value / base, or 0 when the base is 0 (a layer the workload never uses).
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Ordered name -> (value, unit) list plus the correctness tally.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A failed check is printed at once and counted in `failed`.
  void check(bool ok, const std::string& what);
  void add_attempted(uint64_t n) { attempted_ += n; }
  void add_failed(uint64_t n) { failed_ += n; }
  uint64_t failed() const { return failed_; }
  uint64_t attempted() const { return attempted_; }
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  // Human-readable table, one metric a line.
  void print_table() const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  void print_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

}  // namespace perfbench
