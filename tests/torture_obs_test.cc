// Torture: seeded interleaving exploration of the observability layer's
// lock-free protocols, at a seed count that earns the torture label.
//
// Two protocols, the same single-writer disciplines the paper's WST uses:
//   * sharded counters / histograms — each shard has one writer; merged
//     reads may interleave anywhere and must stay monotone and bounded
//     (count and max), and once the writers finish, every merge order
//     of the shard snapshots must equal the merged snapshot;
//   * the trace ring's seqlock-style reader — any snapshot taken between
//     any two writer steps must be a contiguous, in-order, untorn window
//     of the written sequence.
//
// Both schedule families run per seed (random-walk for breadth, bounded
// preemption to concentrate on low-preemption-count orderings), and every
// run's trace hash is checked against a replay of the same seed —
// determinism is itself an invariant here, since a failure report is only
// useful if the seed reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "testing/interleave.h"

namespace hermes::obs {
namespace {

using hermes::testing::ExploreOptions;
using hermes::testing::ExploreResult;
using hermes::testing::InterleavingExplorer;
using hermes::testing::SchedulePolicy;

constexpr int kSeeds = 150;

TraceEvent event_for(uint64_t i) {
  TraceEvent ev;
  ev.t_ns = static_cast<int64_t>(i);
  ev.type = static_cast<uint16_t>(1 + i % 6);
  ev.worker = static_cast<uint16_t>(i % 5);
  ev.a = static_cast<uint32_t>(i * 2654435761u);
  ev.b = i * 0x9e3779b97f4a7c15ull;
  ev.c = ~i;
  return ev;
}

// One exploration of 4 counter writers + histogram writers + a merging
// reader. Returns the trace hash so the caller can assert determinism.
uint64_t explore_counters(uint64_t seed, SchedulePolicy policy) {
  Counter c(4);
  LogHistogram h(4, 2);
  uint64_t expected_total = 0;
  uint64_t expected_records = 0;
  uint64_t last_count = 0;
  uint64_t last_max = 0;
  uint64_t last_value = 0;
  // Each writer records (t << 20) + i for i < 6: writer 3's last is largest.
  const uint64_t expected_max = (3ull << 20) + 5;
  std::string err;

  ExploreOptions opts;
  opts.seed = seed;
  opts.policy = policy;
  opts.preemption_budget = 3;
  InterleavingExplorer ex(opts);

  for (uint32_t t = 0; t < 4; ++t) {
    std::string name = "w";
    name += std::to_string(t);
    auto& script = ex.thread(name);
    script.repeat(6, [&, t](InterleavingExplorer::ThreadScript& s,
                            uint32_t i) {
      s.step("count", [&c, t, i] { c.add(t, (t + 1) * (i + 1)); });
      s.step("record", [&h, t, i] {
        h.record(t, (static_cast<uint64_t>(t) << 20) + i);
      });
    });
    for (uint32_t i = 0; i < 6; ++i) {
      expected_total += (t + 1) * (i + 1);
      ++expected_records;
    }
  }

  ex.invariant("counter-monotone-bounded", [&] {
    const uint64_t v = c.value();
    if (v < last_value) return std::string("merged counter went backwards");
    if (v > expected_total) return std::string("merged counter too large");
    last_value = v;
    return std::string();
  });
  ex.invariant("histogram-count-monotone", [&] {
    const auto snap = h.snapshot();
    if (snap.count < last_count) {
      return std::string("histogram count went backwards");
    }
    if (snap.count > expected_records) {
      return std::string("histogram count too large");
    }
    // Bucket totals must always equal the count (no half-applied record).
    uint64_t bsum = 0;
    for (uint64_t b : snap.buckets) bsum += b;
    if (bsum != snap.count) {
      return std::string("bucket totals diverge from count");
    }
    if (snap.max < last_max) return std::string("histogram max went backwards");
    if (snap.max > expected_max) return std::string("histogram max too large");
    if (snap.quantile(1.0) > snap.max) {
      return std::string("quantile above the recorded max");
    }
    last_count = snap.count;
    last_max = snap.max;
    return std::string();
  });
  ex.invariant("step-errors", [&err] { return err; });

  const ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_EQ(c.value(), expected_total) << "seed " << seed;
  EXPECT_EQ(h.snapshot().count, expected_records) << "seed " << seed;
  EXPECT_EQ(h.snapshot().sum, [&] {
    uint64_t s = 0;
    for (uint32_t t = 0; t < 4; ++t) {
      for (uint32_t i = 0; i < 6; ++i) s += (static_cast<uint64_t>(t) << 20) + i;
    }
    return s;
  }()) << "seed " << seed;
  EXPECT_EQ(h.snapshot().max, expected_max) << "seed " << seed;

  // Every merge order and association of the shard snapshots reproduces
  // snapshot(), max included: left folds over all 24 shard orders, and
  // (a+b)+(c+d) pairings.
  const Histogram merged = h.snapshot();
  std::vector<Histogram> shard;
  for (uint32_t t = 0; t < 4; ++t) shard.push_back(h.shard_snapshot(t));
  std::vector<uint32_t> order = {0, 1, 2, 3};
  do {
    Histogram fold = shard[order[0]];
    for (size_t k = 1; k < order.size(); ++k) fold.merge(shard[order[k]]);
    Histogram ab = shard[order[0]];
    ab.merge(shard[order[1]]);
    Histogram cd = shard[order[2]];
    cd.merge(shard[order[3]]);
    ab.merge(cd);
    EXPECT_TRUE(fold == merged) << "seed " << seed;
    EXPECT_TRUE(ab == merged) << "seed " << seed;
  } while (std::next_permutation(order.begin(), order.end()));
  return r.trace_hash;
}

TEST(TortureObsCounters, SeedSweepBothPolicies) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (SchedulePolicy policy :
         {SchedulePolicy::RandomWalk, SchedulePolicy::BoundedPreemption}) {
      const uint64_t h1 = explore_counters(seed, policy);
      const uint64_t h2 = explore_counters(seed, policy);
      ASSERT_EQ(h1, h2) << "non-deterministic replay at seed " << seed;
    }
  }
}

// One exploration of a writer + snapshotting reader over a small ring
// (capacity 4 — overwrite pressure on nearly every write).
uint64_t explore_ring(uint64_t seed, SchedulePolicy policy) {
  TraceRing ring(4);
  uint64_t written = 0;
  std::string err;

  ExploreOptions opts;
  opts.seed = seed;
  opts.policy = policy;
  opts.preemption_budget = 4;
  InterleavingExplorer ex(opts);

  ex.thread("writer").repeat(
      20, [&](InterleavingExplorer::ThreadScript& s, uint32_t) {
        s.step("write", [&] { ring.write(event_for(written++)); });
      });
  ex.thread("reader").repeat(
      10, [&](InterleavingExplorer::ThreadScript& s, uint32_t) {
        s.step("snapshot", [&] {
          const auto snap = ring.snapshot();
          if (snap.size() > std::min<uint64_t>(written, ring.capacity())) {
            err = "snapshot larger than written window";
            return;
          }
          const uint64_t first = written - snap.size();
          for (size_t k = 0; k < snap.size(); ++k) {
            const TraceEvent want = event_for(first + k);
            if (snap[k].t_ns != want.t_ns || snap[k].b != want.b ||
                snap[k].c != want.c || snap[k].a != want.a) {
              err = "snapshot torn or out of order at k=" + std::to_string(k);
              return;
            }
          }
        });
      });
  ex.invariant("reader-consistency", [&err] { return err; });

  const ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_EQ(written, 20u);
  return r.trace_hash;
}

TEST(TortureObsTraceRing, SeedSweepBothPolicies) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (SchedulePolicy policy :
         {SchedulePolicy::RandomWalk, SchedulePolicy::BoundedPreemption}) {
      const uint64_t h1 = explore_ring(seed, policy);
      const uint64_t h2 = explore_ring(seed, policy);
      ASSERT_EQ(h1, h2) << "non-deterministic replay at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace hermes::obs
