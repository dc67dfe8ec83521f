// Property-based tests: randomized invariants over the scheduler, the
// dispatch pipeline, the verifier (robustness fuzz), and the HTTP parser.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bpf/vm.h"
#include "core/dispatch_prog.h"
#include "core/hermes.h"
#include "core/scheduler.h"
#include "http/parser.h"
#include "simcore/rng.h"
#include "test_util.h"

namespace hermes {
namespace {

// ---------------------------------------------------------- scheduler

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, InvariantsHoldOnRandomTables) {
  sim::Rng rng(GetParam());
  const uint32_t workers = 1 + static_cast<uint32_t>(rng.next_below(32));
  auto buf = testing::wst_buffer(workers);
  auto wst = core::WorkerStatusTable::init(buf.data(), workers);

  core::HermesConfig cfg;
  cfg.theta_ratio = rng.uniform(0.0, 2.0);
  const SimTime now = SimTime::seconds(10);

  std::vector<bool> hung(workers);
  for (WorkerId w = 0; w < workers; ++w) {
    hung[w] = rng.bernoulli(0.2);
    wst.update_avail(w, hung[w] ? SimTime::zero()
                                : now - SimTime::millis(
                                            (int64_t)rng.next_below(40)));
    wst.add_connections(w, (int64_t)rng.next_below(1000));
    wst.add_pending(w, (int64_t)rng.next_below(50));
  }

  core::Scheduler sched(cfg);
  const auto res = sched.schedule(wst, now);

  // 1. No hung worker is ever selected.
  for (WorkerId w = 0; w < workers; ++w) {
    if (hung[w]) {
      EXPECT_FALSE(core::bitmap_test(res.bitmap, w));
    }
  }
  // 2. Bitmap never names workers beyond the table.
  for (WorkerId w = workers; w < 64; ++w) {
    EXPECT_FALSE(core::bitmap_test(res.bitmap, w));
  }
  // 3. selected == popcount(bitmap), and the cascade only shrinks.
  EXPECT_EQ(res.selected, core::count_nonzero_bits(res.bitmap));
  EXPECT_LE(res.after_conn, res.after_time);
  EXPECT_LE(res.after_event, res.after_conn);
  EXPECT_EQ(res.selected, res.after_event);
  // 4. If any worker is alive, the time filter keeps it.
  uint32_t alive = 0;
  for (bool h : hung) alive += h ? 0 : 1;
  EXPECT_EQ(res.after_time, alive);
}

TEST_P(SchedulerPropertyTest, WiderThetaNeverSelectsFewer) {
  sim::Rng rng(GetParam() + 1000);
  const uint32_t workers = 2 + static_cast<uint32_t>(rng.next_below(30));
  auto buf = testing::wst_buffer(workers);
  auto wst = core::WorkerStatusTable::init(buf.data(), workers);
  const SimTime now = SimTime::seconds(1);
  for (WorkerId w = 0; w < workers; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, (int64_t)rng.next_below(500));
    wst.add_pending(w, (int64_t)rng.next_below(50));
  }
  core::HermesConfig narrow_cfg, wide_cfg;
  narrow_cfg.theta_ratio = 0.2;
  wide_cfg.theta_ratio = 1.5;
  const auto narrow = core::Scheduler(narrow_cfg).schedule(wst, now);
  const auto wide = core::Scheduler(wide_cfg).schedule(wst, now);
  EXPECT_LE(narrow.selected, wide.selected);
  // Narrow selection is a subset of the wide one.
  EXPECT_EQ(narrow.bitmap & wide.bitmap, narrow.bitmap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

// ------------------------------------------------- dispatch pipeline

class DispatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// End-to-end: random WST -> schedule -> sync -> bpf dispatch. The selected
// worker must always be a member of the scheduler's bitmap.
TEST_P(DispatchPropertyTest, DispatchedWorkerIsAlwaysSelected) {
  sim::Rng rng(GetParam());
  const uint32_t workers = 2 + static_cast<uint32_t>(rng.next_below(62));
  core::HermesRuntime::Options opts;
  opts.num_workers = workers;
  core::HermesRuntime rt(opts);

  const SimTime now = SimTime::seconds(5);
  for (WorkerId w = 0; w < workers; ++w) {
    if (!rng.bernoulli(0.15)) rt.hooks_for(w).on_loop_enter(now);
    rt.wst().add_connections(w, (int64_t)rng.next_below(300));
    rt.wst().add_pending(w, (int64_t)rng.next_below(20));
  }
  std::vector<uint64_t> cookies;
  for (WorkerId w = 0; w < workers; ++w) cookies.push_back(100 + w);
  auto att = rt.attach_port(cookies);

  const auto res = rt.schedule_and_sync(0, now);
  for (int i = 0; i < 64; ++i) {
    bpf::ReuseportCtx ctx;
    ctx.hash = static_cast<uint32_t>(rng.next_u64());
    const auto run = rt.vm().run(*att.program, ctx);
    if (run.ret == bpf::kRetUseSelection && ctx.selection_made) {
      const auto w = static_cast<WorkerId>(ctx.selected_socket - 100);
      EXPECT_TRUE(core::bitmap_test(res.bitmap, w))
          << "dispatched to unselected worker " << w;
    } else {
      // Fallback only when the coarse filter passed < 2 workers.
      EXPECT_LT(res.selected, 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchPropertyTest,
                         ::testing::Range<uint64_t>(100, 120));

// ------------------------------------------------- verifier robustness

// Fuzz: random instruction streams must never crash the verifier, and any
// program it ACCEPTS must execute in the VM without tripping the runtime
// memory guards (defense in depth: the guards abort the process, so mere
// successful execution is the assertion).
TEST(VerifierFuzzTest, RandomProgramsNeverBreakTheSandbox) {
  sim::Rng rng(0xfadedace);
  bpf::Vm vm;
  bpf::ArrayMap sel(2, 8);
  bpf::ReuseportSockArray socks(8);
  socks.update(1, 42);
  std::vector<bpf::Map*> maps = {&sel, &socks};

  int accepted = 0;
  constexpr int kPrograms = 3000;
  for (int i = 0; i < kPrograms; ++i) {
    const size_t len = 1 + rng.next_below(24);
    bpf::Program prog;
    for (size_t k = 0; k < len; ++k) {
      bpf::Insn insn;
      insn.op = static_cast<bpf::Op>(
          rng.next_below(static_cast<uint64_t>(bpf::Op::Exit) + 1));
      insn.dst = static_cast<uint8_t>(rng.next_below(12));  // incl. invalid
      insn.src = static_cast<uint8_t>(rng.next_below(12));
      insn.off = static_cast<int32_t>(rng.next_below(40)) - 8;
      switch (rng.next_below(4)) {
        case 0: insn.imm = 0; break;
        case 1: insn.imm = static_cast<int64_t>(rng.next_below(5)); break;
        case 2: insn.imm = -4; break;
        default:
          insn.imm = static_cast<int64_t>(rng.next_u64());
          break;
      }
      prog.push_back(insn);
    }
    prog.push_back({bpf::Op::MovImm, 0, 0, 0, 0});
    prog.push_back({bpf::Op::Exit});

    std::string err;
    auto loaded = vm.load(prog, maps, &err);
    if (loaded) {
      ++accepted;
      bpf::ReuseportCtx ctx;
      ctx.hash = static_cast<uint32_t>(rng.next_u64());
      const auto res = vm.run(*loaded, ctx);  // must not abort
      (void)res;
    }
  }
  // Sanity: the fuzzer generates both rejects and accepts.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kPrograms);
}

// ------------------------------------------------- http parser fuzz

TEST(ParserFuzzTest, RandomBytesNeverCrashAndAlwaysProgress) {
  sim::Rng rng(0xbadcafe);
  for (int i = 0; i < 2000; ++i) {
    std::string input;
    const size_t len = rng.next_below(300);
    for (size_t k = 0; k < len; ++k) {
      // Bias toward structure-ish bytes to reach deeper states.
      switch (rng.next_below(6)) {
        case 0: input += "GET "; break;
        case 1: input += "\r\n"; break;
        case 2: input += ':'; break;
        case 3: input += " HTTP/1.1"; break;
        default:
          input += static_cast<char>(rng.next_below(256));
          break;
      }
    }
    http::RequestParser p;
    size_t off = 0;
    int guard = 0;
    while (off < input.size() && !p.failed() && !p.has_request()) {
      const size_t used = p.feed(std::string_view{input}.substr(off));
      ASSERT_LE(used, input.size() - off);
      if (used == 0) {
        // No progress is only legal in a terminal state.
        ASSERT_TRUE(p.failed() || p.has_request());
        break;
      }
      off += used;
      ASSERT_LT(++guard, 100000);
    }
  }
}

TEST(ParserFuzzTest, SplitPointsDoNotChangeTheResult) {
  // Determinism across arbitrary fragmentation: parse the same request fed
  // at random split points; the result must be identical.
  const std::string wire =
      "POST /api/v2/items?id=9 HTTP/1.1\r\nHost: shop.example\r\n"
      "Content-Length: 13\r\nX-Trace: abc\r\n\r\nhello, hermes";
  sim::Rng rng(777);
  http::RequestParser ref;
  ref.feed(wire);
  ASSERT_TRUE(ref.has_request());
  const http::Request expect = ref.take();

  for (int trial = 0; trial < 200; ++trial) {
    http::RequestParser p;
    size_t off = 0;
    while (off < wire.size()) {
      const size_t chunk = 1 + rng.next_below(17);
      const size_t n = std::min(chunk, wire.size() - off);
      off += p.feed(std::string_view{wire}.substr(off, n));
    }
    ASSERT_TRUE(p.has_request());
    const http::Request got = p.take();
    EXPECT_EQ(got.method, expect.method);
    EXPECT_EQ(got.path, expect.path);
    EXPECT_EQ(got.query, expect.query);
    EXPECT_EQ(got.body, expect.body);
    EXPECT_EQ(got.wire_size, expect.wire_size);
    EXPECT_EQ(got.headers.size(), expect.headers.size());
  }
}

}  // namespace
}  // namespace hermes
