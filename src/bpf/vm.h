// The eBPF virtual machine: loads a verified program with its bound maps
// and executes it against a ReuseportCtx (or raw context buffer).
//
// Execution model matches the kernel interpreter: 64-bit registers, 512-byte
// zeroed stack per run, the two helpers (map_lookup_elem,
// sk_select_reuseport) dispatched by id. A verified program jumps only
// forward, so a run executes each instruction at most once and needs no
// instruction budget. Loads/stores the verifier could not prove in-bounds
// are additionally bounds-checked at runtime (defense in depth; a
// violation is a bug in this repo, so it aborts). Vm itself holds no
// state.
//
// Loading is split in two. A VerifiedImage is the part that is the same
// for every map set of one shape: the program, the verifier's analysis of
// it, its compiled ExecutionPlan (bpf/plan.h) with the map-pointer sites
// left open, and the shape (type, max_entries, value_size) of each map
// slot it was verified against. The program is analysed once, at load:
// the plan compiles against that analysis, and prove_dispatch
// (bpf/analysis/prove.h) checks its facts rather than analysing again.
// A LoadedProgram binds an image to concrete maps: a copy of the plan's
// micro-ops with those sites pointing at its own maps. load()
// verifies, compiles and binds; bind() reuses an image for another map
// set of the same shape (one reuseport group per port, one image per
// device), checking every slot's shape and never re-verifying. run()
// dispatches through the bound plan. The trapping reference interpreter,
// bpf::ref_run (bpf/ref_interpreter.h), is the oracle the plan is tested
// against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/verifier.h"

namespace hermes::bpf {

// A verified, compiled program with its maps unbound. It keeps no map
// pointer, so it outlives every LoadedProgram bound from it. Create via
// Vm::load() and take it from LoadedProgram::image().
class VerifiedImage {
 public:
  const Program& insns() const { return prog_; }
  // The verifier's successful analysis of insns() against the load-time
  // maps: per-callsite helper facts, per-pc access proofs, the exit range.
  const analysis::AnalysisResult& analysis() const { return analysis_; }

 private:
  friend class Vm;
  // What the verifier reads of a slot's map; nullopt for a slot the
  // program never references.
  struct MapShape {
    MapType type;
    uint32_t max_entries;
    uint32_t value_size;
    bool operator==(const MapShape&) const = default;
  };
  static std::optional<MapShape> shape_of(const Map* m);

  Program prog_;
  analysis::AnalysisResult analysis_;
  std::vector<std::optional<MapShape>> shapes_;
  ExecutionPlan plan_;  // unbound: map sites hold 0
};

// A verified program bound to its maps. Create via Vm::load() or
// Vm::bind().
class LoadedProgram {
 public:
  const Program& insns() const { return image_->insns(); }
  std::span<Map* const> maps() const { return maps_; }
  const ExecutionPlan& plan() const { return plan_; }
  const std::shared_ptr<const VerifiedImage>& image() const { return image_; }

 private:
  friend class Vm;
  std::shared_ptr<const VerifiedImage> image_;
  std::vector<Map*> maps_;
  ExecutionPlan plan_;
};

class Vm {
 public:
  // Verify + compile the execution plan + bind maps. Returns nullptr and
  // fills `error` on rejection.
  std::unique_ptr<LoadedProgram> load(Program prog, std::vector<Map*> maps,
                                      std::string* error = nullptr) const;

  // Bind an already verified image to another map set. Aborts unless every
  // slot has the shape the image was verified against: the verifier's
  // proofs (and any prove_dispatch over image->analysis()) hold only for
  // that shape.
  std::unique_ptr<LoadedProgram> bind(
      std::shared_ptr<const VerifiedImage> image,
      std::vector<Map*> maps) const;

  // r0 at exit, source instructions executed, and the plan's fused and
  // unchecked micro-ops executed.
  using RunResult = ExecutionPlan::ExecResult;

  // Run against a reuseport context. The program may call
  // bpf_sk_select_reuseport, which records its decision into `ctx`.
  RunResult run(const LoadedProgram& prog, ReuseportCtx& ctx) const;
};

}  // namespace hermes::bpf
