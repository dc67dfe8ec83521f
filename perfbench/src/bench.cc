#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::add_double(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(i);
  return v[i] * (1 - frac) + v[i + 1] * frac;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN or infinity; a non-finite value is a benchmark bug.
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0;
  }
  entries_.push_back(Entry{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  ++failed_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::print_table() const {
  for (const Entry& e : entries_) {
    std::printf("  %-28s %18.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

void Report::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", entries_[i].name.c_str(),
                entries_[i].value, entries_[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace perfbench
