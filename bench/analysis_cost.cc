// Cost of static verification: how long the abstract interpreter takes as
// a function of program size and shape. Two parts:
//   1. google-benchmark microbenchmarks — the production dispatch program
//      across pool geometries, and seeded generator output at fixed atom
//      counts;
//   2. a size-vs-steps-vs-time table over generator output, so the
//      relationship between instruction count, abstract steps, and wall
//      time is visible at a glance.
// Verification runs once per program load — these numbers bound program
// install latency, not the data path.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bpf/analysis/interp.h"
#include "bpf/maps.h"
#include "core/dispatch_prog.h"
#include "simcore/rng.h"
#include "testing/fuzz_gen.h"

using namespace hermes;
using bpf::analysis::AnalysisResult;
using bpf::analysis::analyze;

namespace {

// Harness maps matching testing::GenOptions defaults.
struct GenWorld {
  bpf::ArrayMap array{2, sizeof(uint64_t)};
  bpf::ReuseportSockArray socks{8};
  std::vector<bpf::Map*> maps{&array, &socks};
};

std::vector<bpf::Program> gen_corpus(uint32_t atoms, int count,
                                     uint64_t seed_base) {
  testing::GenOptions opt;
  opt.min_atoms = atoms;
  opt.max_atoms = atoms;
  std::vector<bpf::Program> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    sim::Rng rng(seed_base + static_cast<uint64_t>(i));
    out.push_back(testing::gen_program(rng, opt));
  }
  return out;
}

void BM_AnalyzeDispatchProgram(benchmark::State& state) {
  core::DispatchProgramParams p;
  p.num_groups = static_cast<uint32_t>(state.range(0));
  p.workers_per_group = static_cast<uint32_t>(state.range(1));
  const bpf::Program prog = core::build_dispatch_program(p);
  bpf::ArrayMap sel(p.num_groups, sizeof(uint64_t));
  bpf::ReuseportSockArray socks(p.num_groups * p.workers_per_group);
  std::vector<bpf::Map*> maps = {&sel, &socks};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(prog, maps));
  }
  state.counters["insns"] = static_cast<double>(prog.size());
}
BENCHMARK(BM_AnalyzeDispatchProgram)
    ->Args({1, 8})
    ->Args({4, 32})
    ->Args({64, 64});

void BM_AnalyzeGeneratedProgram(benchmark::State& state) {
  const auto atoms = static_cast<uint32_t>(state.range(0));
  GenWorld w;
  const auto corpus = gen_corpus(atoms, 32, 0xbe7c0000 + atoms);
  size_t insns = 0;
  for (const auto& p : corpus) insns += p.size();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(corpus[i], w.maps));
    i = (i + 1) % corpus.size();
  }
  state.counters["avg_insns"] =
      static_cast<double>(insns) / static_cast<double>(corpus.size());
}
BENCHMARK(BM_AnalyzeGeneratedProgram)->Arg(2)->Arg(8)->Arg(32);

// Part 2: size vs abstract steps vs wall time over generator output.
void print_cost_table(bench::BenchJson& json) {
  std::printf("\nAnalyzer cost vs generated program size"
              " (200 seeded programs per row)\n");
  std::printf("%-6s | %9s %11s %11s %9s %9s\n", "atoms", "avg insns",
              "avg steps", "max steps", "avg us", "accept%");
  for (uint32_t atoms : {2u, 4u, 8u, 16u, 32u}) {
    GenWorld w;
    const auto corpus = gen_corpus(atoms, 200, 0xc057ull * atoms);
    size_t insns = 0;
    uint64_t steps = 0, max_steps = 0;
    int accepted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& p : corpus) {
      const AnalysisResult r = analyze(p, w.maps);
      insns += p.size();
      steps += r.analysis_steps;
      max_steps = std::max(max_steps, r.analysis_steps);
      accepted += r.ok ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double n = static_cast<double>(corpus.size());
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / n;
    std::printf("%-6u | %9.1f %11.1f %11llu %9.2f %8.1f%%\n", atoms,
                static_cast<double>(insns) / n,
                static_cast<double>(steps) / n,
                static_cast<unsigned long long>(max_steps), us,
                100.0 * accepted / n);
    const std::string prefix = "atoms" + std::to_string(atoms);
    json.metric(prefix + ".avg_insns", static_cast<double>(insns) / n);
    json.metric(prefix + ".avg_steps", static_cast<double>(steps) / n);
    json.metric(prefix + ".accept_pct", 100.0 * accepted / n);
    json.metric(prefix + ".avg_us", us);  // wall clock: excluded from gate
  }
  std::printf("\nshape: one step per reachable instruction (programs are"
              " loop-free, and a\nrejected program stops at its first"
              " error); verification stays in the\nmicrosecond range —"
              " negligible against program install, which happens\nonce"
              " per configuration change.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("analysis_cost", &argc, argv);
  benchmark::Initialize(&argc, argv);
  std::printf("Analyzer microbenchmarks: verification time by program"
              " shape\n");
  benchmark::RunSpecifiedBenchmarks();
  print_cost_table(json);
  return 0;
}
