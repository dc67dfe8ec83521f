// HermesRuntime end-to-end with the netsim kernel: the full closed loop of
// stages 1-3 without the workload simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bpf/ref_interpreter.h"
#include "core/hermes.h"
#include "netsim/netstack.h"
#include "simcore/rng.h"

namespace hermes::core {
namespace {

netsim::FourTuple rand_tuple(sim::Rng& rng, uint16_t dport) {
  return netsim::FourTuple{static_cast<uint32_t>(rng.next_u64()),
                           0x0a000001,
                           static_cast<uint16_t>(rng.next_u64()), dport};
}

class RuntimeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWorkers = 4;

  RuntimeTest() : runtime_(make_options()) {
    netsim::NetStack::Config cfg;
    cfg.mode = netsim::DispatchMode::HermesMode;
    cfg.num_workers = kWorkers;
    ns_.emplace(cfg);
    ns_->add_port(80);

    // Wire stage 3: per-port sockarray from the port's socket cookies.
    std::vector<uint64_t> cookies;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      cookies.push_back(ns_->worker_socket(80, w)->cookie());
    }
    attachment_ = runtime_.attach_port(cookies);
    ns_->group(80)->attach_program(&runtime_.vm(), attachment_.program.get());
    for (WorkerId w = 0; w < kWorkers; ++w) {
      waiters_[w].self = w;
      ns_->register_waiter(w, &waiters_[w]);
    }
  }

  // Counts the wakeups its worker's sockets deliver; always idle.
  struct CountingWaiter final : netsim::Waiter {
    WorkerId self = 0;
    std::map<WorkerId, int>* got = nullptr;
    bool try_wake(netsim::ListeningSocket& s) override {
      EXPECT_EQ(s.owner(), self);
      if (got != nullptr) ++(*got)[self];
      return true;
    }
  };

  static HermesRuntime::Options make_options() {
    HermesRuntime::Options o;
    o.num_workers = kWorkers;
    return o;
  }

  void all_alive(SimTime now) {
    for (WorkerId w = 0; w < kWorkers; ++w) {
      runtime_.hooks_for(w).on_loop_enter(now);
    }
  }

  std::map<WorkerId, int> drive_connections(int n, uint64_t seed) {
    sim::Rng rng(seed);
    std::map<WorkerId, int> got;
    for (CountingWaiter& w : waiters_) w.got = &got;
    for (int i = 0; i < n; ++i) {
      ns_->on_connection_request(rand_tuple(rng, 80), 0, SimTime::zero());
    }
    for (CountingWaiter& w : waiters_) w.got = nullptr;
    return got;
  }

  HermesRuntime runtime_;
  std::optional<netsim::NetStack> ns_;
  PortAttachment attachment_;
  CountingWaiter waiters_[kWorkers];
};

TEST_F(RuntimeTest, FullLoopDispatchesOnlyToSelectedWorkers) {
  const SimTime now = SimTime::millis(10);
  all_alive(now);
  // Make workers 1 and 3 heavily loaded: scheduler must exclude them.
  runtime_.hooks_for(1).wst();  // (hooks are value handles; use wst directly)
  runtime_.wst().add_connections(1, 1000);
  runtime_.wst().add_connections(3, 800);

  const auto res = runtime_.schedule_and_sync(/*self=*/0, now);
  EXPECT_EQ(res.bitmap, 0b0101u);
  EXPECT_EQ(runtime_.kernel_bitmap(), 0b0101u);

  auto got = drive_connections(500, 42);
  EXPECT_GT(got[0], 0);
  EXPECT_GT(got[2], 0);
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_EQ(got.count(3), 0u);
  EXPECT_EQ(ns_->group(80)->stats().bpf_selections, 500u);
}

TEST_F(RuntimeTest, SingleSurvivorFallsBackToHashing) {
  // Three workers hung: only one passes the coarse filter, which is below
  // the kernel's n>1 requirement -> plain reuseport hashing.
  const SimTime now = SimTime::seconds(1);
  all_alive(now);
  for (WorkerId w : {1u, 2u, 3u}) {
    runtime_.wst().update_avail(w, SimTime::zero());
  }
  const auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_EQ(res.selected, 1u);

  auto got = drive_connections(400, 43);
  // Fallback hashing spreads over everyone — including "overloaded" ones.
  EXPECT_EQ(ns_->group(80)->stats().bpf_fallbacks, 400u);
  EXPECT_GE(got.size(), 3u);
}

TEST_F(RuntimeTest, HungWorkerBypassedAfterSync) {
  const SimTime now = SimTime::seconds(1);
  all_alive(now);
  runtime_.wst().update_avail(2, SimTime::zero());  // hung long ago
  runtime_.schedule_and_sync(0, now);
  auto got = drive_connections(300, 44);
  EXPECT_EQ(got.count(2), 0u);
  EXPECT_EQ(got[0] + got[1] + got[3], 300);
}

TEST_F(RuntimeTest, StaleBitmapRefreshedByNextSync) {
  const SimTime t1 = SimTime::millis(10);
  all_alive(t1);
  runtime_.wst().add_connections(0, 1000);
  runtime_.schedule_and_sync(1, t1);
  EXPECT_FALSE(bitmap_test(runtime_.kernel_bitmap(), 0));

  // Worker 0 drains; any worker's next schedule pass restores it.
  runtime_.wst().add_connections(0, -1000);
  const SimTime t2 = SimTime::millis(15);
  all_alive(t2);
  runtime_.schedule_and_sync(3, t2);
  EXPECT_TRUE(bitmap_test(runtime_.kernel_bitmap(), 0));
}

TEST_F(RuntimeTest, CountersTrackSchedulesAndSyncs) {
  // Two identical bitmaps one refresh interval apart: the second is not
  // suppressed, so both syncs publish.
  const SimTime now = SimTime::millis(5);
  all_alive(now);
  auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_TRUE(res.published);
  const SimTime later = now + runtime_.config().sync_refresh_interval;
  all_alive(later);
  res = runtime_.schedule_and_sync(1, later);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(runtime_.counters().schedules, 2u);
  EXPECT_EQ(runtime_.counters().syncs, 2u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 0u);
  EXPECT_EQ(runtime_.counters().workers_selected_sum, 8u);
}

TEST_F(RuntimeTest, FastPathSuppressesUnchangedSyncWithinRefreshInterval) {
  const SimTime now = SimTime::millis(5);
  all_alive(now);
  auto res = runtime_.schedule_and_sync(0, now);
  EXPECT_TRUE(res.published);
  // Identical bitmap within sync_refresh_interval: store skipped.
  res = runtime_.schedule_and_sync(1, now + SimTime::millis(1));
  EXPECT_FALSE(res.published);
  EXPECT_EQ(runtime_.counters().syncs, 1u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 1u);
  // Changed bitmap: published immediately even inside the interval.
  runtime_.wst().add_connections(2, 1000);
  res = runtime_.schedule_and_sync(0, now + SimTime::millis(2));
  EXPECT_TRUE(res.published);
  EXPECT_FALSE(bitmap_test(runtime_.kernel_bitmap(), 2));
  // Identical again, but the refresh interval elapsed: forced publish.
  const SimTime later =
      now + SimTime::millis(2) + runtime_.config().sync_refresh_interval;
  all_alive(later);
  res = runtime_.schedule_and_sync(1, later);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(runtime_.counters().syncs, 3u);
  EXPECT_EQ(runtime_.counters().syncs_suppressed, 1u);
  // schedules counts every run, suppressed or not.
  EXPECT_EQ(runtime_.counters().schedules, 4u);
}

TEST(RuntimeGroupTest, TwoLevelRuntimeFor128Workers) {
  HermesRuntime::Options o;
  o.num_workers = 128;
  o.config.workers_per_group = 64;
  HermesRuntime rt(o);
  EXPECT_EQ(rt.num_groups(), 2u);

  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < 128; ++w) rt.hooks_for(w).on_loop_enter(now);

  // Worker 70 (group 1) schedules only group 1's slice.
  rt.wst().add_connections(100, 5000);
  const auto res = rt.schedule_and_sync(70, now);
  EXPECT_EQ(res.selected, 63u);                       // group 1 minus worker 100
  EXPECT_FALSE(bitmap_test(res.bitmap, 100 - 64));    // group-relative bit
  EXPECT_EQ(rt.kernel_bitmap(1), res.bitmap);
  EXPECT_EQ(rt.kernel_bitmap(0), 0u);  // group 0 not scheduled yet
}

TEST(RuntimeGroupTest, OddWorkerCountLastGroupSmaller) {
  HermesRuntime::Options o;
  o.num_workers = 70;
  o.config.workers_per_group = 64;
  HermesRuntime rt(o);
  EXPECT_EQ(rt.num_groups(), 2u);
  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < 70; ++w) rt.hooks_for(w).on_loop_enter(now);
  const auto res = rt.schedule_and_sync(69, now);
  EXPECT_EQ(res.selected, 6u);  // workers 64..69
}

// The dispatch program is verified and compiled once per runtime; every
// port binds that image to its own socket array. Cookies carry their port
// in the high word, so a selection that reads another port's array shows.
uint64_t port_cookie(uint32_t port, WorkerId w) {
  return (uint64_t{port} << 32) | w;
}

std::vector<uint64_t> port_cookies(uint32_t port, uint32_t workers) {
  std::vector<uint64_t> cookies;
  for (WorkerId w = 0; w < workers; ++w) {
    cookies.push_back(port_cookie(port, w));
  }
  return cookies;
}

std::vector<uint8_t> aux_bytes(HermesRuntime& rt) {
  bpf::ArrayMap* aux = rt.aux_map();
  if (aux == nullptr) return {};
  return {aux->storage_base(), aux->storage_base() + aux->storage_bytes()};
}

void set_aux_bytes(HermesRuntime& rt, const std::vector<uint8_t>& bytes) {
  if (rt.aux_map() != nullptr) {
    std::copy(bytes.begin(), bytes.end(), rt.aux_map()->storage_base());
  }
}

TEST_F(RuntimeTest, ScheduleAndSyncWritesOnlyItsGroup) {
  // 130 workers: two full groups of 64 and a partial last group of 2. A
  // schedule by any worker may store only its own group's bitmap and aux
  // value; every other group keeps what it held.
  constexpr uint32_t kBig = 130;
  HermesRuntime::Options o;
  o.num_workers = kBig;
  o.config.workers_per_group = 64;
  o.policy = PolicyKind::QueueEst;
  HermesRuntime rt(o);
  ASSERT_EQ(rt.num_groups(), 3u);
  ASSERT_NE(rt.aux_map(), nullptr);

  const SimTime now = SimTime::millis(5);
  for (WorkerId w = 0; w < kBig; ++w) {
    rt.hooks_for(w).on_loop_enter(now);
    rt.wst().add_connections(w, (3 * w) % 7);
    rt.wst().add_pending(w, w % 5);
  }
  constexpr uint64_t kSentinel = 0x5a5a5a5a5a5a5a5aull;
  const uint32_t words = rt.policy().aux_words();
  const auto aux_of = [&](uint32_t g) {
    std::vector<uint64_t> v;
    for (uint32_t k = 0; k < words; ++k) {
      v.push_back(rt.aux_map()->load_word_u64(g, k));
    }
    return v;
  };
  std::vector<uint64_t> bitmaps(rt.num_groups(), kSentinel);
  std::vector<std::vector<uint64_t>> aux(
      rt.num_groups(), std::vector<uint64_t>(words, kSentinel));
  for (uint32_t g = 0; g < rt.num_groups(); ++g) {
    rt.sel_map().store_u64(g, kSentinel);
    for (uint32_t k = 0; k < words; ++k) {
      rt.aux_map()->store_word_u64(g, k, kSentinel);
    }
  }

  for (uint32_t g = 0; g < rt.num_groups(); ++g) {
    const ScheduleResult res = rt.schedule_and_sync(g * 64 + 1, now);
    ASSERT_TRUE(res.published);
    EXPECT_NE(res.bitmap, kSentinel);
    EXPECT_NE(aux_of(g), aux[g]) << "group " << g;
    bitmaps[g] = res.bitmap;
    aux[g] = aux_of(g);
    for (uint32_t h = 0; h < rt.num_groups(); ++h) {
      EXPECT_EQ(rt.kernel_bitmap(h), bitmaps[h]) << "after group " << g;
      EXPECT_EQ(aux_of(h), aux[h]) << "after group " << g;
    }
  }
}

class PerPortBindTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PerPortBindTest, EveryPortRunsTheImageOnItsOwnMaps) {
  constexpr uint32_t kWorkers = 24;  // two groups of 16, the last partial
  constexpr uint32_t kPorts = 32;
  HermesRuntime::Options o;
  o.num_workers = kWorkers;
  o.config.workers_per_group = 16;
  o.policy = GetParam();
  HermesRuntime rt(o);

  std::vector<PortAttachment> ports;
  for (uint32_t p = 0; p < kPorts; ++p) {
    ports.push_back(rt.attach_port(port_cookies(p, kWorkers)));
  }
  EXPECT_EQ(rt.counters().program_loads, 1u);

  // Publish real aux state (for the aux-map policies) from a WST with
  // uneven load, then sweep the selection bitmaps over it.
  const SimTime now = SimTime::millis(5);
  for (WorkerId w = 0; w < kWorkers; ++w) {
    rt.hooks_for(w).on_loop_enter(now);
    rt.wst().add_connections(w, (3 * w) % 7);
  }
  for (uint32_t g = 0; g < rt.num_groups(); ++g) {
    rt.schedule_and_sync(g * rt.workers_per_group(), now);
  }

  sim::Rng rng(29);
  std::vector<bpf::ReuseportCtx> ctxs(48);
  for (bpf::ReuseportCtx& c : ctxs) {
    c.hash = static_cast<uint32_t>(rng.next_u64());
    c.hash2 = static_cast<uint32_t>(rng.next_u64());
    c.ip_protocol = 6;
  }
  uint64_t selections = 0;
  for (const uint64_t bitmap : {~0ull, 0xffffull, 0xadull, 0x5f00ull, 1ull}) {
    for (uint32_t g = 0; g < rt.num_groups(); ++g) {
      rt.sel_map().store_u64(g, bitmap);
    }
    for (uint32_t p = 0; p < kPorts; ++p) {
      const bpf::LoadedProgram& prog = *ports[p].program;
      ASSERT_EQ(prog.maps()[1], ports[p].sock_map.get());
      for (const bpf::ReuseportCtx& c : ctxs) {
        // queue_est's program writes the aux map: run the reference from
        // the same starting bytes and require the same final bytes.
        const std::vector<uint8_t> aux_before = aux_bytes(rt);
        bpf::ReuseportCtx ctx = c;
        const bpf::Vm::RunResult run = rt.vm().run(prog, ctx);
        const std::vector<uint8_t> aux_after = aux_bytes(rt);
        set_aux_bytes(rt, aux_before);
        bpf::ReuseportCtx ref_ctx = c;
        const bpf::RefResult ref =
            bpf::ref_run(prog.insns(), prog.maps(), ref_ctx);
        ASSERT_FALSE(ref.trapped) << ref.trap;
        ASSERT_EQ(aux_bytes(rt), aux_after) << "port " << p;
        ASSERT_EQ(run.ret, ref.ret) << "port " << p;
        ASSERT_EQ(run.insns_executed, ref.insns_executed) << "port " << p;
        ASSERT_EQ(ctx.selection_made, ref_ctx.selection_made) << "port " << p;
        ASSERT_EQ(ctx.selected_socket, ref_ctx.selected_socket)
            << "port " << p;
        if (ctx.selection_made) {
          ++selections;
          EXPECT_EQ(ctx.selected_socket >> 32, p);
          EXPECT_LT(ctx.selected_socket & 0xffffffffu, kWorkers);
        }
      }
    }
  }
  EXPECT_GT(selections, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PerPortBindTest,
    ::testing::Values(PolicyKind::Cascade, PolicyKind::P2c,
                      PolicyKind::Weighted, PolicyKind::QueueEst),
    [](const ::testing::TestParamInfo<PolicyKind>& param) {
      return std::string(to_string(param.param));
    });

TEST(PerPortBindLifetimeTest, LaterPortOutlivesTheFirstAttachment) {
  // The image keeps no pointer into the first port's maps: with that
  // attachment gone, a new port still binds and dispatches cleanly.
  constexpr uint32_t kWorkers = 8;
  HermesRuntime::Options o;
  o.num_workers = kWorkers;
  o.policy = PolicyKind::P2c;  // an aux-map policy: three map slots
  HermesRuntime rt(o);
  {
    PortAttachment first = rt.attach_port(port_cookies(0, kWorkers));
  }
  PortAttachment second = rt.attach_port(port_cookies(1, kWorkers));
  EXPECT_EQ(rt.counters().program_loads, 1u);

  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < kWorkers; ++w) rt.hooks_for(w).on_loop_enter(now);
  rt.schedule_and_sync(0, now);
  sim::Rng rng(5);
  int selections = 0;
  for (int i = 0; i < 64; ++i) {
    bpf::ReuseportCtx ctx;
    ctx.hash = static_cast<uint32_t>(rng.next_u64());
    ctx.hash2 = static_cast<uint32_t>(rng.next_u64());
    ctx.ip_protocol = 6;
    (void)rt.vm().run(*second.program, ctx);
    if (ctx.selection_made) {
      ++selections;
      EXPECT_EQ(ctx.selected_socket >> 32, 1u);
    }
  }
  EXPECT_GT(selections, 0);
}

}  // namespace
}  // namespace hermes::core
