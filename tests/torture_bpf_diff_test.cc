// Torture: differential fuzzing of verifier + VM + reference interpreter.
//
// Seeded random programs from testing::gen_program go through the verifier
// (via Vm::load). Accepted programs run twice against identically
// initialized state: once under bpf::Vm, once under the independent
// reference interpreter (bpf/ref_interpreter.h), with
// deterministic counter-based time/rand helpers. The contract:
//
//   * a verifier-ACCEPTED program NEVER traps in the reference interpreter
//     (no bad memory access, no bad helper call, no budget blowout) — that
//     is the verifier's entire soundness claim, checked dynamically;
//   * both implementations agree on r0, instruction count, reuseport
//     selection side effects, and final map contents — any divergence is a
//     bug in one of the three components, pinned by the failing seed.
//
// bpf::Vm runs the verified ExecutionPlan (bpf/plan.h): pre-decoded
// micro-ops with superinstruction fusion and verifier-guided check
// elision. It must match the reference interpreter byte-for-byte —
// including insns_executed, which fused micro-ops must keep equal to the
// source-instruction count.
//
// One run covers >= 10,000 generated programs.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"
#include "bpf/ref_interpreter.h"
#include "bpf/vm.h"
#include "core/dispatch_prog.h"
#include "core/policy.h"
#include "simcore/rng.h"
#include "testing/fuzz_gen.h"

namespace hermes::bpf {
namespace {

constexpr uint64_t kSeedBase = 0x5eedULL << 32;
constexpr int kNumPrograms = 10'000;

constexpr testing::GenOptions kGen{};  // defaults: 2-entry array, 8 socks

// Deterministic helper functions: both runs see the same sequence.
Vm::TimeFn counter_time(uint64_t& n) {
  return [&n] { return 1'000'000 + 7 * n++; };
}
Vm::RandFn counter_rand(uint64_t& n) {
  return [&n] { return static_cast<uint32_t>(0x9e3779b9u * ++n); };
}

struct World {
  ArrayMap array;
  ReuseportSockArray socks;

  explicit World(sim::Rng& rng)
      : array(kGen.array_entries, sizeof(uint64_t)),
        socks(kGen.sock_entries) {
    for (uint32_t k = 0; k < kGen.array_entries; ++k) {
      const uint64_t v = rng.next_u64();
      array.update(k, &v);
    }
    for (uint32_t k = 0; k < kGen.sock_entries; ++k) {
      // Mix of present cookies and empty slots (SkSelectReuseport -ENOENT).
      if (rng.bernoulli(0.75)) socks.update(k, 100 + k);
    }
  }

  // Identical twin: same bytes, separate storage.
  World(const World&) = delete;
  static void clone_into(World& dst, World& src) {
    std::memcpy(dst.array.storage_base(), src.array.storage_base(),
                src.array.storage_bytes());
    for (uint32_t k = 0; k < kGen.sock_entries; ++k) {
      const uint64_t c = src.socks.get(k);
      if (c == kNoSocket) {
        dst.socks.remove(k);
      } else {
        dst.socks.update(k, c);
      }
    }
  }
};

TEST(TortureBpfDiff, TenThousandProgramsNoTrapNoDivergence) {
  int accepted = 0;
  int rejected = 0;
  int accepted_with_loop = 0;
  int accepted_with_range_access = 0;

  for (int i = 0; i < kNumPrograms; ++i) {
    const uint64_t seed = kSeedBase + static_cast<uint64_t>(i);
    sim::Rng rng(seed);
    testing::GenStats stats;
    const Program prog = testing::gen_program(rng, kGen, &stats);
    const ReuseportCtx ctx0 = testing::gen_ctx(rng);

    sim::Rng world_rng(seed ^ 0xabcdef);
    World vm_world(world_rng);
    sim::Rng world_rng2(seed ^ 0xabcdef);
    World ref_world(world_rng2);

    // Verifier gate (Vm::load = verify + bind maps + compile the plan).
    Vm vm;
    std::string err;
    auto loaded = vm.load(prog, {&vm_world.array, &vm_world.socks}, &err);
    if (loaded == nullptr) {
      ++rejected;
      continue;
    }
    ++accepted;
    if (stats.has_loop) ++accepted_with_loop;
    if (stats.has_range_access) ++accepted_with_range_access;

    // Reference run first: an accepted program must never trap.
    Map* ref_maps[] = {&ref_world.array, &ref_world.socks};
    ReuseportCtx ref_ctx = ctx0;
    uint64_t ref_t = 0, ref_r = 0;
    const RefResult ref =
        ref_run(prog, ref_maps, ref_ctx, counter_time(ref_t),
                counter_rand(ref_r));
    ASSERT_FALSE(ref.trapped)
        << "verifier-accepted program trapped: " << ref.trap << " at pc "
        << ref.trap_pc << " (seed=" << seed << ")\n"
        << disassemble(prog);

    // The plan runs against its own identically initialized world and
    // must match the reference byte-for-byte.
    uint64_t vm_t = 0, vm_r = 0;
    vm.set_time_fn(counter_time(vm_t));
    vm.set_rand_fn(counter_rand(vm_r));
    ReuseportCtx vm_ctx = ctx0;
    const Vm::RunResult got = vm.run(*loaded, vm_ctx);

    ASSERT_EQ(got.ret, ref.ret)
        << "r0 divergence (seed=" << seed << ")\n"
        << disassemble(prog);
    ASSERT_EQ(got.insns_executed, ref.insns_executed)
        << "instruction-count divergence (seed=" << seed << ")\n"
        << disassemble(prog);
    ASSERT_EQ(vm_ctx.selection_made, ref_ctx.selection_made)
        << "selection divergence (seed=" << seed << ")";
    ASSERT_EQ(vm_ctx.selected_socket, ref_ctx.selected_socket)
        << "selected-socket divergence (seed=" << seed << ")";
    ASSERT_EQ(std::memcmp(vm_world.array.storage_base(),
                          ref_world.array.storage_base(),
                          vm_world.array.storage_bytes()),
              0)
        << "final map-content divergence (seed=" << seed << ")\n"
        << disassemble(prog);
  }

  // The corpus must exercise both verifier verdicts, or the test is vacuous.
  EXPECT_GT(accepted, kNumPrograms / 20)
      << "generator produced almost no verifiable programs";
  EXPECT_GT(rejected, kNumPrograms / 20)
      << "generator stopped producing rejection-worthy programs";
  // Program classes the abstract interpreter newly admits (the old
  // verifier rejected all backward edges and all variable-offset
  // accesses) must both occur AND pass verification — otherwise the
  // corpus no longer covers the analysis engine's hardest paths.
  EXPECT_GT(accepted_with_loop, 0)
      << "no accepted program contained a bounded loop";
  EXPECT_GT(accepted_with_range_access, 0)
      << "no accepted program contained a range-proven variable-offset "
         "access";
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  RecordProperty("accepted_with_loop", accepted_with_loop);
  RecordProperty("accepted_with_range_access", accepted_with_range_access);
}

TEST(TortureBpfDiff, GeneratorIsDeterministic) {
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    sim::Rng a(seed), b(seed);
    const Program pa = testing::gen_program(a, kGen);
    const Program pb = testing::gen_program(b, kGen);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t k = 0; k < pa.size(); ++k) {
      ASSERT_EQ(disassemble(pa[k]), disassemble(pb[k])) << "insn " << k;
    }
  }
}

// The production dispatch program, differentially checked: Vm and the
// reference interpreter must agree on every (bitmap, hash, hash2) we throw
// at it — this pins the program the paper actually ships, not just random
// bytecode. The sweep covers every socket-array geometry class the
// program generator supports: single- and multi-group, minimum and
// full-width (64-worker) bitmaps, and a non-power-of-two width.
TEST(TortureBpfDiff, DispatchProgramAgreesWithReferenceInterpreter) {
  struct Geometry {
    uint32_t groups;
    uint32_t workers_per_group;
  };
  constexpr Geometry kGeometries[] = {
      {1, 2}, {1, 8}, {2, 8}, {2, 64}, {4, 16}, {3, 5}};

  for (const Geometry& g : kGeometries) {
    const uint32_t n_socks = g.groups * g.workers_per_group;
    const uint64_t bitmap_mask = g.workers_per_group >= 64
                                     ? ~0ull
                                     : (1ull << g.workers_per_group) - 1;
    core::DispatchProgramParams params;
    params.num_groups = g.groups;
    params.workers_per_group = g.workers_per_group;
    ArrayMap sel(g.groups, sizeof(uint64_t));
    ReuseportSockArray socks(n_socks);
    for (uint32_t w = 0; w < n_socks; ++w) socks.update(w, 1000 + w);

    const Program prog = core::build_dispatch_program(params);
    // The plan and the reference interpreter share the maps: the dispatch
    // program never writes map state.
    Vm vm;
    std::string err;
    const auto loaded = vm.load(prog, {&sel, &socks}, &err);
    ASSERT_NE(loaded, nullptr)
        << "geometry " << g.groups << "x" << g.workers_per_group << ": "
        << err;

    sim::Rng rng(7 + g.groups * 131 + g.workers_per_group);
    Map* maps[] = {&sel, &socks};
    for (int i = 0; i < 800; ++i) {
      for (uint32_t k = 0; k < g.groups; ++k) {
        sel.store_u64(k, rng.next_u64() & bitmap_mask);
      }
      const ReuseportCtx ctx0 = testing::gen_ctx(rng);
      ReuseportCtx ref_ctx = ctx0;

      const RefResult ref = ref_run(prog, maps, ref_ctx);
      ASSERT_FALSE(ref.trapped) << ref.trap << " at pc " << ref.trap_pc;
      ReuseportCtx ctx = ctx0;
      const Vm::RunResult got = vm.run(*loaded, ctx);

      const auto where = [&] {
        return ::testing::Message()
               << "geometry " << g.groups << "x" << g.workers_per_group
               << " iteration " << i;
      };
      ASSERT_EQ(got.ret, ref.ret) << where();
      ASSERT_EQ(got.insns_executed, ref.insns_executed) << where();
      ASSERT_EQ(ctx.selection_made, ref_ctx.selection_made) << where();
      ASSERT_EQ(ctx.selected_socket, ref_ctx.selected_socket) << where();
    }
  }
}

// Every scheduling policy's generated dispatch program (core/policy.h),
// differentially checked the same way — with two policy-specific twists:
//
//   * the plan and the reference interpreter get PRIVATE maps.
//     queue_est's program WRITES its aux map (the per-dispatch estimate
//     increment), so shared storage would let one run contaminate the
//     other; instead the plan's final aux bytes must match the reference
//     interpreter's byte-for-byte;
//   * the policy's C++ mirror (reference_dispatch, which mutates its own
//     plain-memory aux copy) must agree with the program on both the
//     picked worker and the resulting aux contents.
//
// Aux values refresh from fill_aux() every few iterations, not every one,
// so the sweep also covers the staleness window where the bitmap moved
// but the aux state did not (weighted's membership re-check, queue_est's
// accumulated increments).
TEST(TortureBpfDiff, PolicyProgramsBitIdenticalAcrossTiers) {
  struct Geometry {
    uint32_t groups;
    uint32_t workers_per_group;
  };
  constexpr Geometry kGeometries[] = {
      {1, 2}, {1, 8}, {2, 8}, {2, 64}, {4, 16}, {3, 5}};
  constexpr int kIters = 450;

  core::PolicyConfig pcfg;
  pcfg.worker_weights = {4, 4, 2, 1};  // heterogeneous head, weight-1 tail

  for (size_t k = 0; k < core::kPolicyCount; ++k) {
    const auto kind = static_cast<core::PolicyKind>(k);
    const auto policy = core::make_policy(kind, pcfg);
    for (const Geometry& g : kGeometries) {
      const uint32_t n_socks = g.groups * g.workers_per_group;
      const uint64_t bitmap_mask = g.workers_per_group >= 64
                                       ? ~0ull
                                       : (1ull << g.workers_per_group) - 1;
      core::PolicyProgramParams pp;
      pp.base.num_groups = g.groups;
      pp.base.workers_per_group = g.workers_per_group;
      pp.base.min_workers = 1;
      const Program prog = policy->build_program(pp);
      const uint32_t aux_bytes = policy->aux_value_bytes();

      // One private world for the plan, one for the reference interpreter.
      struct PolicyWorld {
        std::unique_ptr<ArrayMap> sel;
        std::unique_ptr<ReuseportSockArray> socks;
        std::unique_ptr<ArrayMap> aux;
        std::vector<Map*> maps;
      };
      auto make_world = [&] {
        PolicyWorld w;
        w.sel = std::make_unique<ArrayMap>(g.groups, sizeof(uint64_t));
        w.socks = std::make_unique<ReuseportSockArray>(n_socks);
        for (uint32_t s = 0; s < n_socks; ++s) w.socks->update(s, 1000 + s);
        w.maps = {w.sel.get(), w.socks.get()};
        if (aux_bytes > 0) {
          w.aux = std::make_unique<ArrayMap>(g.groups, aux_bytes);
          w.maps.push_back(w.aux.get());
        }
        return w;
      };
      PolicyWorld ref_world = make_world();
      PolicyWorld vm_world = make_world();
      Vm vm;
      std::string err;
      const auto loaded = vm.load(prog, vm_world.maps, &err);
      ASSERT_NE(loaded, nullptr)
          << policy->name() << " " << g.groups << "x" << g.workers_per_group
          << ": " << err;

      // The C++ mirror's aux copy (plain memory, same per-group stride as
      // the map's slots).
      const size_t stride = aux_bytes;
      std::vector<uint8_t> mirror_aux(stride * g.groups, 0);
      std::vector<uint64_t> bitmaps(g.groups, 0);

      sim::Rng rng(0xbadcab1e + k * 977 + g.groups * 131 +
                   g.workers_per_group);
      int64_t conns[core::kMaxWorkersPerGroup];
      int64_t pending[core::kMaxWorkersPerGroup];
      for (int i = 0; i < kIters; ++i) {
        for (uint32_t gr = 0; gr < g.groups; ++gr) {
          bitmaps[gr] = rng.next_u64() & bitmap_mask;
          ref_world.sel->store_u64(gr, bitmaps[gr]);
          vm_world.sel->store_u64(gr, bitmaps[gr]);
        }
        if (aux_bytes > 0 && i % 4 == 0) {
          for (uint32_t gr = 0; gr < g.groups; ++gr) {
            for (uint32_t w = 0; w < core::kMaxWorkersPerGroup; ++w) {
              conns[w] = static_cast<int64_t>(rng.next_u64() % 97);
              pending[w] = static_cast<int64_t>(rng.next_u64() % 23);
            }
            core::ScheduleResult sr;
            sr.bitmap = bitmaps[gr];
            core::PolicyAuxInputs in;
            in.loop_enter_ns = conns;  // unused by current policies
            in.pending_events = pending;
            in.connections = conns;
            in.limit = g.workers_per_group;
            in.base = gr * g.workers_per_group;
            in.result = &sr;
            uint64_t words[core::kMaxWorkersPerGroup] = {};
            policy->fill_aux(in, words);
            std::memcpy(mirror_aux.data() + gr * stride, words, aux_bytes);
            ref_world.aux->update(gr, words);
            vm_world.aux->update(gr, words);
          }
        }

        const ReuseportCtx ctx0 = testing::gen_ctx(rng);
        ReuseportCtx ref_ctx = ctx0;
        const RefResult ref =
            ref_run(prog, ref_world.maps, ref_ctx);
        ASSERT_FALSE(ref.trapped)
            << policy->name() << ": " << ref.trap << " at pc " << ref.trap_pc;

        // The C++ mirror must agree with the reference interpreter on the
        // picked worker (and mutate its aux copy identically).
        const WorkerId want = policy->reference_dispatch(
            pp, bitmaps.data(), mirror_aux.data(), stride, ctx0.hash,
            ctx0.hash2);
        const auto where = [&] {
          return ::testing::Message()
                 << policy->name() << " " << g.groups << "x"
                 << g.workers_per_group << " iteration " << i;
        };
        if (want == kInvalidWorker) {
          ASSERT_TRUE(ref.ret == kRetFallback || !ref_ctx.selection_made)
              << where();
        } else {
          ASSERT_EQ(ref.ret, kRetUseSelection) << where();
          ASSERT_TRUE(ref_ctx.selection_made) << where();
          ASSERT_EQ(ref_ctx.selected_socket, 1000 + want) << where();
        }
        if (aux_bytes > 0) {
          ASSERT_EQ(std::memcmp(ref_world.aux->storage_base(),
                                mirror_aux.data(),
                                ref_world.aux->storage_bytes()),
                    0)
              << where() << " (mirror aux diverged from interpreter)";
        }

        ReuseportCtx ctx = ctx0;
        const Vm::RunResult got = vm.run(*loaded, ctx);
        ASSERT_EQ(got.ret, ref.ret) << where();
        ASSERT_EQ(got.insns_executed, ref.insns_executed) << where();
        ASSERT_EQ(ctx.selection_made, ref_ctx.selection_made) << where();
        ASSERT_EQ(ctx.selected_socket, ref_ctx.selected_socket) << where();
        if (aux_bytes > 0) {
          ASSERT_EQ(std::memcmp(vm_world.aux->storage_base(),
                                ref_world.aux->storage_base(),
                                ref_world.aux->storage_bytes()),
                    0)
              << where() << " (aux bytes diverged)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace hermes::bpf
