// Pluggable scheduling policies (ROADMAP item 3): the Stage-2 userspace
// filter pipeline and the Stage-3 eBPF dispatch program are two halves of
// ONE policy, so they are authored together behind this interface.
//
// A SchedulingPolicy supplies
//   (a) a userspace side — fill_aux() consumes the Wst::gather SoA
//       snapshot (plus the cascade's ScheduleResult) and produces the
//       policy's eligibility/load state as u64 words, published into a
//       per-group auxiliary array map alongside the selection bitmap;
//   (b) a kernel side — build_program() emits the matching eBPF dispatch
//       program through the assembler. Every generated program is
//       machine-checked by bpf/analysis/prove.h, from the analysis
//       Vm::load's verifier ran, before any port runs it (the
//       selected key is proven < nr_socks on every path), and each
//       load-aware program re-checks bitmap membership in-kernel, so a
//       stale or corrupt aux value can only cause a fallback, never a
//       dispatch outside the eligible set. That proof obligation is what
//       makes policy authoring safe.
//
// Shipped policies (DESIGN.md §12):
//   cascade    the paper's Algo. 1 + Algo. 2 pair, byte-identical to the
//              pre-policy-framework program; default and reference.
//   p2c        power-of-two-choices inside the dispatch program: two
//              independent rank-samples of the bitmap, the one with the
//              smaller per-worker WST load word (connections) wins.
//   weighted   heterogeneous workers: per-worker capacity weights folded
//              into a 64-slot lottery table over the eligible set; the
//              program indexes it by hash and re-checks membership.
//   queue_est  Charon/LSQ-style local-shortest-queue: dispatcher-local
//              queue estimates seeded from WST pending_events, argmin over
//              the eligible set, incremented in-kernel per dispatch so
//              estimates stay useful between refreshes (staleness is
//              bounded by the schedule/publish cadence).
//
// A runtime runs another policy than the cascade only when its config
// names one (HermesRuntime::Options::policy, LbDevice::Config::policy,
// simctl --policy); no environment variable selects one.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bpf/insn.h"
#include "core/dispatch_prog.h"
#include "core/scheduler.h"
#include "util/types.h"

namespace hermes::core {

enum class PolicyKind : uint8_t { Cascade = 0, P2c, Weighted, QueueEst };
inline constexpr size_t kPolicyCount = 4;

const char* to_string(PolicyKind kind);
// Accepts the names simctl --policy takes: cascade | p2c | weighted |
// queue_est. Returns false on anything else.
bool parse_policy(std::string_view name, PolicyKind* out);

struct PolicyProgramParams {
  DispatchProgramParams base;
  // Slot of the policy's auxiliary array map (num_groups entries of
  // aux_value_bytes() each). Unused by policies with no aux state.
  int32_t aux_map_slot = 2;
  // Tests only: omit the range guards in front of the socket selection so
  // the planted out-of-range selection MUST be rejected by prove.h. A
  // planted program is never loaded or run.
  bool plant_out_of_range = false;
};

struct PolicyConfig {
  // Per-global-worker capacity weights (weighted policy). Empty means
  // every worker weighs 1; missing tail entries also default to 1.
  std::vector<uint32_t> worker_weights;
};

// Inputs to fill_aux: one group's slice of the Wst::gather SoA snapshot
// plus the cascade result computed from that same snapshot (on the fast
// path; the reference oracle's cascade reads the WST itself).
struct PolicyAuxInputs {
  const int64_t* loop_enter_ns = nullptr;
  const int64_t* pending_events = nullptr;
  const int64_t* connections = nullptr;
  uint32_t limit = 0;          // live workers in this group slice
  WorkerId base = 0;           // first global worker id of the group
  SimTime now{};
  const ScheduleResult* result = nullptr;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual PolicyKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  // Bytes of per-group auxiliary map value (multiple of 8; 0 = the policy
  // needs no aux map and the dispatch program binds only {sel, socks}).
  virtual uint32_t aux_value_bytes() const { return 0; }
  uint32_t aux_words() const { return aux_value_bytes() / 8; }

  // Userspace half: derive the group's aux value (aux_words() u64 words)
  // from the gathered snapshot. Called after every schedule; the runtime
  // publishes the words with word-atomic stores (ArrayMap).
  virtual void fill_aux(const PolicyAuxInputs& in, uint64_t* out_words) const {
    (void)in;
    (void)out_words;
  }

  // Kernel half: the dispatch program. Must pass bpf::verify() and
  // analysis::prove_dispatch() for nr_socks = num_groups *
  // workers_per_group (the runtime refuses to attach otherwise).
  virtual bpf::Program build_program(const PolicyProgramParams& p) const = 0;

  // C++ mirror of the program's decision, for differential tests. Returns
  // the selected global worker id or kInvalidWorker for "fall back to
  // reuseport hashing". `aux_base`/`aux_stride` address the same per-group
  // values the program would read — and, for queue_est, mutate (the
  // in-kernel estimate increment is part of the contract).
  virtual WorkerId reference_dispatch(const PolicyProgramParams& p,
                                      const uint64_t* group_bitmaps,
                                      uint8_t* aux_base, size_t aux_stride,
                                      uint32_t hash, uint32_t hash2) const = 0;
};

std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              const PolicyConfig& cfg = {});

}  // namespace hermes::core
