// Summary statistics: exact small-sample quantiles for bench tables
// (SampleSet) and running mean/stddev (RunningStat, Welford) used for the
// paper's SD-of-CPU and SD-of-connections metrics (Fig. 13).
//
// Bucketed distributions (request latency, the Figs. 4/5 per-worker
// series) are obs::Histogram (obs/metrics.h), the repository's one
// log-linear histogram.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace hermes::sim {

// Exact quantiles for small sample sets (per-bench summary rows).
class SampleSet {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return samples_.size(); }

  double quantile(double q) {
    if (samples_.empty()) return 0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const size_t i = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 >= samples_.size()) return samples_.back();
    return samples_[i] * (1 - frac) + samples_[i + 1] * frac;
  }

  double mean() const {
    if (samples_.empty()) return 0;
    double s = 0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

// Welford running mean / standard deviation.
class RunningStat {
 public:
  void add(double v) {
    ++n_;
    const double d = v - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (v - mean_);
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;  // population variance
  }
  double stddev() const { return std::sqrt(variance()); }

  void reset() {
    n_ = 0;
    mean_ = 0;
    m2_ = 0;
  }

 private:
  uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace hermes::sim
