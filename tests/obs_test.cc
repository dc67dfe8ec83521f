// Tests for the observability layer (src/obs): sharded counters, the
// log-linear histogram, and the per-worker trace rings.
//
// Three angles:
//   * deterministic unit checks of the bucket geometry and ring overwrite
//     semantics (exact expectations, no tolerance);
//   * property tests over seeded value streams — every recorded value must
//     land in a bucket that contains it, and snapshot merging must be
//     associative and commutative (merge order cannot change a report);
//   * concurrency: the interleaving explorer shakes the sharded-counter and
//     seqlock-reader protocols step by step, and a real two-std::thread
//     writer/reader test gives TSan something genuinely parallel to watch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/observability.h"
#include "simcore/rng.h"
#include "testing/interleave.h"

namespace hermes::obs {
namespace {

using hermes::testing::ExploreOptions;
using hermes::testing::ExploreResult;
using hermes::testing::InterleavingExplorer;
using hermes::testing::SchedulePolicy;

// ---- Counter / Gauge ---------------------------------------------------

TEST(CounterTest, ShardsMergeOnRead) {
  Counter c(4);
  c.add(0, 10);
  c.add(1, 1);
  c.inc(3);
  EXPECT_EQ(c.value(), 12u);
  EXPECT_EQ(c.shard_value(0), 10u);
  EXPECT_EQ(c.shard_value(2), 0u);
  EXPECT_EQ(c.shards(), 4u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(-5);
  g.add(12);
  EXPECT_EQ(g.value(), 7);
}

// The merged value must equal the sum of per-thread contributions no matter
// how increments from different shards interleave — and any mid-flight read
// must see a value between 0 and the final total (monotonicity).
TEST(CounterTest, ShardedMergeUnderInterleaving) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Counter c(4);
    uint64_t expected = 0;
    std::atomic<uint64_t> last_read{0};

    ExploreOptions opts;
    opts.seed = seed;
    opts.policy = seed % 2 ? SchedulePolicy::RandomWalk
                           : SchedulePolicy::BoundedPreemption;
    InterleavingExplorer ex(opts);
    for (uint32_t t = 0; t < 4; ++t) {
      std::string name = "w";
      name += std::to_string(t);
      auto& script = ex.thread(name);
      script.repeat(8, [&c, t](InterleavingExplorer::ThreadScript& s,
                               uint32_t i) {
        s.step("add", [&c, t, i] { c.add(t, i + 1); });
      });
      for (uint32_t i = 0; i < 8; ++i) expected += i + 1;
    }
    ex.invariant("monotone-read", [&c, &last_read, expected] {
      const uint64_t v = c.value();
      const uint64_t prev = last_read.exchange(v);
      if (v < prev) return std::string("merged value went backwards");
      if (v > expected) return std::string("merged value exceeds total");
      return std::string();
    });

    const ExploreResult r = ex.run();
    ASSERT_TRUE(r.ok) << r.report();
    EXPECT_EQ(c.value(), expected) << "seed " << seed;
  }
}

// ---- LogHistogram bucket geometry --------------------------------------

TEST(LogHistogramTest, BucketBoundaries) {
  for (uint32_t sub_bits : {0u, 1u, 2u, 4u}) {
    // Exact boundary values: powers of two and their neighbors.
    std::vector<uint64_t> vals = {0, 1, 2, 3};
    for (int sh = 2; sh < 64; ++sh) {
      const uint64_t p = 1ull << sh;
      vals.push_back(p - 1);
      vals.push_back(p);
      vals.push_back(p + 1);
    }
    vals.push_back(~0ull);

    size_t prev_idx = 0;
    uint64_t prev_v = 0;
    for (uint64_t v : vals) {
      const size_t idx = Histogram::bucket_index(v, sub_bits);
      ASSERT_LT(idx, Histogram::bucket_count(sub_bits))
          << "v=" << v << " sub_bits=" << sub_bits;
      EXPECT_LE(Histogram::bucket_lower(idx, sub_bits), v)
          << "v=" << v << " sub_bits=" << sub_bits;
      EXPECT_GE(Histogram::bucket_upper(idx, sub_bits), v)
          << "v=" << v << " sub_bits=" << sub_bits;
      if (v >= prev_v) {
        EXPECT_GE(idx, prev_idx) << "bucket index not monotone at v=" << v;
      }
      prev_idx = idx;
      prev_v = v;
    }
  }
}

TEST(LogHistogramTest, BucketContainsValueProperty) {
  sim::Rng rng(0xb0c4e7);
  for (int i = 0; i < 20000; ++i) {
    // Mix magnitudes: small counts, latencies in ns, and full-range values.
    const uint64_t v = rng.next_u64() >> (rng.next_u64() % 64);
    for (uint32_t sub_bits : {1u, 2u, 3u}) {
      const size_t idx = Histogram::bucket_index(v, sub_bits);
      ASSERT_LE(Histogram::bucket_lower(idx, sub_bits), v);
      ASSERT_GE(Histogram::bucket_upper(idx, sub_bits), v);
      // The bucket's relative width bounds the quantile error: upper/lower
      // <= 1 + 2^-sub_bits for lower >= 2^sub_bits.
      const uint64_t lo = Histogram::bucket_lower(idx, sub_bits);
      const uint64_t hi = Histogram::bucket_upper(idx, sub_bits);
      if (lo >= (1ull << sub_bits)) {
        ASSERT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo),
                  1.0 / static_cast<double>(1ull << sub_bits) + 1e-9)
            << "bucket " << idx << " too wide at sub_bits=" << sub_bits;
      }
    }
  }
}

TEST(LogHistogramTest, RecordAndQuantiles) {
  LogHistogram h(2, /*sub_bits=*/4);
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v % 2, v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 1000u * 1001u / 2);
  // p50 within one bucket width (1/16 relative) of 500.
  EXPECT_NEAR(static_cast<double>(s.p50()), 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(s.p99()), 990.0, 990.0 / 16 + 1);
  // Per-shard views partition the merged one.
  const auto s0 = h.shard_snapshot(0);
  const auto s1 = h.shard_snapshot(1);
  EXPECT_EQ(s0.count + s1.count, s.count);
  EXPECT_EQ(s0.sum + s1.sum, s.sum);
}

// A quantile is the upper edge of a bucket, clamped to the largest recorded
// value: 32 at sub_bits 4 sits in bucket [32, 33], and p99 must not report
// a 33 that was never recorded (a 32-worker filter.selected would then
// name a survivor count the device cannot have).
TEST(LogHistogramTest, QuantileNeverExceedsRecordedMax) {
  LogHistogram h(2, /*sub_bits=*/4);
  h.record(1, 32);
  EXPECT_EQ(h.snapshot().max, 32u);
  EXPECT_EQ(h.snapshot().p99(), 32u);
  EXPECT_EQ(h.shard_snapshot(1).p99(), 32u);
  EXPECT_EQ(h.shard_snapshot(0).p99(), 0u);  // empty shard
}

// Property: every quantile equals a sorted-vector reference — the upper
// edge of the bucket holding the ceil(q*n)-th smallest sample, clamped to
// the largest sample — over random streams, half of which include 0 and
// INT64_MAX (an upper bucket edge itself, so those streams never need the
// clamp; the other half's largest sample almost never is one).
TEST(HistogramTest, QuantilesMatchSortedReferenceProperty) {
  sim::Rng rng(0x9a17);
  for (uint32_t sub_bits : {2u, 3u, 4u, 5u}) {
    for (int trial = 0; trial < 40; ++trial) {
      Histogram h(sub_bits);
      std::vector<uint64_t> ref;
      if (trial % 2 == 0) ref = {0, INT64_MAX};
      const uint64_t n = 1 + rng.next_below(600);
      for (uint64_t i = 0; i < n; ++i) {
        // Mix magnitudes: small counts, latencies, and full-range values.
        ref.push_back((rng.next_u64() >> 1) >> rng.next_below(63));
      }
      uint64_t sum = 0;
      for (uint64_t v : ref) {
        h.record(v);
        sum += v;  // wraps exactly as the histogram's sum does
      }
      std::sort(ref.begin(), ref.end());
      ASSERT_EQ(h.count, ref.size());
      ASSERT_EQ(h.sum, sum);
      ASSERT_EQ(h.max, ref.back());

      std::vector<double> qs = {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
      for (int k = 0; k < 8; ++k) qs.push_back(rng.next_double());
      for (double q : qs) {
        auto rank = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(ref.size())));
        rank = std::max<uint64_t>(rank, 1);
        const uint64_t sample = ref[rank - 1];
        const uint64_t want = std::min(
            Histogram::bucket_upper(Histogram::bucket_index(sample, sub_bits),
                                    sub_bits),
            ref.back());
        ASSERT_EQ(h.quantile(q), want)
            << "q=" << q << " n=" << ref.size() << " sub_bits=" << sub_bits;
      }
    }
  }
}

// Merging snapshots is associative and commutative: any merge tree over the
// same shard set yields bit-identical buckets, count, sum and max, and that
// is exactly the histogram of the whole stream recorded into one value.
TEST(LogHistogramTest, SnapshotMergeAssociativityProperty) {
  sim::Rng rng(0x5eed);
  LogHistogram h(4, /*sub_bits=*/2);
  Histogram whole(2);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.next_u64() >> (rng.next_u64() % 48);
    h.record(static_cast<uint32_t>(rng.next_below(4)), v);
    whole.record(v);
  }
  std::vector<LogHistogram::Snapshot> shards;
  for (uint32_t s = 0; s < 4; ++s) shards.push_back(h.shard_snapshot(s));

  // ((0+1)+2)+3
  auto left = shards[0];
  for (int s = 1; s < 4; ++s) left.merge(shards[s]);
  // (3+(2+(1+0)))
  auto right = shards[3];
  {
    auto inner = shards[2];
    auto inner2 = shards[1];
    inner2.merge(shards[0]);
    inner.merge(inner2);
    right.merge(inner);
  }
  // (0+2)+(1+3)
  auto pairs = shards[0];
  pairs.merge(shards[2]);
  auto pairs2 = shards[1];
  pairs2.merge(shards[3]);
  pairs.merge(pairs2);

  const auto merged = h.snapshot();
  EXPECT_TRUE(merged == whole);
  for (const auto* v : {&left, &right, &pairs}) {
    EXPECT_EQ(v->count, merged.count);
    EXPECT_EQ(v->sum, merged.sum);
    EXPECT_EQ(v->max, merged.max);
    EXPECT_EQ(v->buckets, merged.buckets);
  }
  EXPECT_EQ(left.p99(), merged.p99());
}

// ---- TraceRing ---------------------------------------------------------

TraceEvent make_event(uint64_t i) {
  // Every field derives from i so a torn or misplaced record is detectable.
  TraceEvent ev;
  ev.t_ns = static_cast<int64_t>(i);
  ev.type = static_cast<uint16_t>(1 + i % 6);
  ev.worker = static_cast<uint16_t>(i % 7);
  ev.a = static_cast<uint32_t>(i * 2654435761u);
  ev.b = i * 0x9e3779b97f4a7c15ull;
  ev.c = ~i;
  return ev;
}

void expect_event_is(const TraceEvent& ev, uint64_t i) {
  const TraceEvent want = make_event(i);
  EXPECT_EQ(ev.t_ns, want.t_ns);
  EXPECT_EQ(ev.type, want.type);
  EXPECT_EQ(ev.worker, want.worker);
  EXPECT_EQ(ev.a, want.a);
  EXPECT_EQ(ev.b, want.b);
  EXPECT_EQ(ev.c, want.c);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
  EXPECT_EQ(TraceRing(4096).capacity(), 4096u);
  EXPECT_EQ(TraceRing(1).capacity(), 1u);
}

TEST(TraceRingTest, OverwritesOldestKeepsNewest) {
  TraceRing ring(64);
  const uint64_t total = 64 * 2 + 17;
  for (uint64_t i = 0; i < total; ++i) ring.write(make_event(i));
  const auto snap = ring.snapshot();
  // Conservative by one slot once wrapped: capacity-1 newest records.
  ASSERT_EQ(snap.size(), ring.capacity() - 1);
  for (size_t k = 0; k < snap.size(); ++k) {
    expect_event_is(snap[k], total - snap.size() + k);
  }
  expect_event_is(snap.back(), total - 1);
}

TEST(TraceRingTest, PartialFillSnapshotsInOrder) {
  TraceRing ring(64);
  for (uint64_t i = 0; i < 10; ++i) ring.write(make_event(i));
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 10u);
  for (size_t k = 0; k < 10; ++k) expect_event_is(snap[k], k);
}

// Step-level interleaving of one writer and one snapshotting reader: every
// snapshot must be a contiguous, in-order window of the written sequence
// ending at the current head.
TEST(TraceRingTest, ReaderConsistencyUnderInterleaving) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TraceRing ring(8);
    uint64_t written = 0;
    std::string err;

    ExploreOptions opts;
    opts.seed = seed;
    opts.policy = seed % 2 ? SchedulePolicy::BoundedPreemption
                           : SchedulePolicy::RandomWalk;
    InterleavingExplorer ex(opts);

    ex.thread("writer").repeat(
        24, [&](InterleavingExplorer::ThreadScript& s, uint32_t) {
          s.step("write", [&] { ring.write(make_event(written++)); });
        });
    ex.thread("reader").repeat(
        8, [&](InterleavingExplorer::ThreadScript& s, uint32_t) {
          s.step("snapshot", [&] {
            const auto snap = ring.snapshot();
            if (snap.size() > std::min<uint64_t>(written, ring.capacity())) {
              err = "snapshot larger than written window";
              return;
            }
            // Must be the most recent snap.size() events, in order.
            const uint64_t first = written - snap.size();
            for (size_t k = 0; k < snap.size(); ++k) {
              const TraceEvent want = make_event(first + k);
              if (snap[k].t_ns != want.t_ns || snap[k].b != want.b ||
                  snap[k].c != want.c) {
                err = "snapshot out of order or torn at k=" +
                      std::to_string(k);
                return;
              }
            }
          });
        });
    ex.invariant("reader-consistency", [&err] { return err; });

    const ExploreResult r = ex.run();
    ASSERT_TRUE(r.ok) << r.report();
  }
}

// Real parallel writer/reader: TSan-visible. The reader may observe any
// suffix window, but never a torn record (all fields must agree on i) and
// never out-of-order records.
TEST(TraceRingTest, ConcurrentReaderNeverSeesTornRecords) {
  TraceRing ring(256);
  constexpr uint64_t kWrites = 2'000'000;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (uint64_t i = 0; i < kWrites; ++i) ring.write(make_event(i));
    done.store(true, std::memory_order_release);
  });

  uint64_t snapshots = 0;
  // Keep snapshotting until the writer finishes (plus a floor, in case the
  // writer wins the start race entirely).
  while (!done.load(std::memory_order_acquire) || snapshots < 8) {
    const auto snap = ring.snapshot();
    ++snapshots;
    int64_t prev = -1;
    for (const auto& ev : snap) {
      const uint64_t i = static_cast<uint64_t>(ev.t_ns);
      const TraceEvent want = make_event(i);
      ASSERT_EQ(ev.b, want.b) << "torn record at i=" << i;
      ASSERT_EQ(ev.c, want.c) << "torn record at i=" << i;
      ASSERT_EQ(ev.a, want.a) << "torn record at i=" << i;
      ASSERT_GT(ev.t_ns, prev) << "out-of-order snapshot";
      prev = ev.t_ns;
    }
  }
  writer.join();
  EXPECT_GT(snapshots, 0u);
  const auto final_snap = ring.snapshot();
  ASSERT_EQ(final_snap.size(), ring.capacity() - 1);
  expect_event_is(final_snap.back(), kWrites - 1);
}

TEST(TraceBufferTest, RoutesByWorkerAndMergesSorted) {
  TraceBuffer buf(3, 16);
  buf.write(2, TraceType::Dispatch, SimTime::nanos(30), 1, 2, 3);
  buf.write(0, TraceType::Accept, SimTime::nanos(10), 4, 5, 6);
  buf.write(1, TraceType::Drop, SimTime::nanos(20), 7, 8, 9);
  // Out-of-range worker routes to ring 0 (kernel-side events).
  buf.write(99, TraceType::BitmapSync, SimTime::nanos(40), 0, 0, 0);
  EXPECT_EQ(buf.ring(0).written(), 2u);

  const auto merged = buf.merged_snapshot();
  ASSERT_EQ(merged.size(), 4u);
  for (size_t k = 1; k < merged.size(); ++k) {
    EXPECT_LE(merged[k - 1].t_ns, merged[k].t_ns);
  }
  EXPECT_EQ(merged[0].t_ns, 10);
  EXPECT_EQ(merged[3].t_ns, 40);
}

// ---- Registry / exporters ----------------------------------------------

TEST(RegistryTest, CreationIsIdempotentPerName) {
  Registry reg(4);
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("x.depth");
  Gauge& g2 = reg.gauge("x.depth");
  EXPECT_EQ(&g1, &g2);
  LogHistogram& h1 = reg.histogram("x.lat");
  LogHistogram& h2 = reg.histogram("x.lat");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.shards(), 4u);  // default_shards
}

TEST(RegistryTest, ExportsContainRecordedMetrics) {
  Registry reg(2);
  reg.counter("dispatch.picks").add(0, 41);
  reg.counter("dispatch.picks").add(1, 1);
  reg.gauge("sync.staleness").set(-3);
  reg.histogram("req.latency").record(0, 1000);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"dispatch.picks\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sync.staleness\":-3"), std::string::npos) << json;
  EXPECT_NE(json.find("req.latency"), std::string::npos) << json;

  const std::string text = reg.text_dump();
  EXPECT_NE(text.find("dispatch.picks"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(ObservabilityTest, PipelineMetricsAllWired) {
  Observability obs(4);
  const PipelineMetrics& m = obs.metrics;
  for (Counter* c :
       {m.wst_avail_updates, m.wst_pending_updates, m.wst_conn_updates,
        m.filter_runs, m.filter_after_time, m.filter_after_conn,
        m.filter_after_event, m.filter_low_survivor, m.sync_published,
        m.sync_dropped, m.dispatch_picks, m.dispatch_bpf,
        m.dispatch_fallback, m.dispatch_hash, m.accept_enqueued,
        m.accept_dropped}) {
    ASSERT_NE(c, nullptr);
  }
  ASSERT_NE(m.filter_selected, nullptr);
  ASSERT_NE(m.sync_gap_ns, nullptr);
  ASSERT_NE(m.accept_depth, nullptr);
  EXPECT_EQ(m.dispatch_picks->shards(), 4u);
  EXPECT_EQ(obs.traces.workers(), 4u);
  EXPECT_EQ(obs.traces.ring(0).capacity(), Observability::kRingCapacity);
}

TEST(TraceExportTest, ChromeTraceAndTextFormats) {
  TraceBuffer buf(2, 16);
  buf.write(0, TraceType::Dispatch, SimTime::micros(5), 1, 0xff, 8080);
  buf.write(1, TraceType::RequestDone, SimTime::micros(7), 3, 17, 123456);
  const auto events = buf.merged_snapshot();

  const std::string chrome = to_chrome_trace(events);
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u) << chrome;
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("dispatch"), std::string::npos);
  // ts is microseconds in the trace-event format.
  EXPECT_NE(chrome.find("\"ts\":5"), std::string::npos) << chrome;

  const std::string text = to_text(events);
  EXPECT_NE(text.find("dispatch"), std::string::npos);
  EXPECT_NE(text.find("request_done"), std::string::npos);
}

}  // namespace
}  // namespace hermes::obs
