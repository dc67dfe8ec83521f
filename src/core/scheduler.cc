#include "core/scheduler.h"

#include <bit>
#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace hermes::core {

const char* to_string(SchedPath p) {
  switch (p) {
    case SchedPath::Fast: return "fast";
  }
  return "?";
}

int64_t theta_permille_of(double theta_ratio) {
  if (!(theta_ratio > 0)) return 0;  // also maps NaN to 0
  constexpr double kMax = 1e15;
  if (theta_ratio >= kMax / 1000) return static_cast<int64_t>(kMax);
  return std::llround(theta_ratio * 1000);
}

namespace {

// FilterCount (Algo. 1 lines 11-13): keep workers whose metric is below
// avg + theta, where avg is computed over the *current* candidate set.
//
// The comparison is exact fixed-point: with n candidates and metric sum
// `sum`, "v < avg*(1 + theta)" becomes `v*n*1000 < sum*(1000 + tpm)` and
// the degenerate all-equal pass rule "v == avg" becomes `v*n == sum` —
// no division, no doubles, so values above 2^53 cannot be misclassified
// by rounding. Bounds: |metric| < 2^63, n <= 64, so |v*n*1000| < 2^79 and
// |sum*(1000+tpm)| < 2^69 * 2^50 = 2^119, both inside __int128.
//
// Returns the filtered bitmap; `metric` indexes by absolute worker id.
template <typename MetricFn>
WorkerBitmap filter_count(WorkerBitmap candidates, WorkerId base,
                          uint32_t limit, int64_t theta_permille,
                          MetricFn&& metric) {
  const uint32_t n = count_nonzero_bits(candidates);
  if (n == 0) return 0;
  __int128 sum = 0;
  for (uint32_t i = 0; i < limit; ++i) {
    if (bitmap_test(candidates, i)) {
      sum += metric(base + i);
    }
  }
  const __int128 rhs = sum * (1000 + theta_permille);
  WorkerBitmap out = 0;
  for (uint32_t i = 0; i < limit; ++i) {
    if (!bitmap_test(candidates, i)) continue;
    const __int128 vn = static_cast<__int128>(metric(base + i)) * n;
    // R_i < Avg + theta. When every candidate has the same value, the
    // strict comparison with theta == 0 would empty the set; treat the
    // degenerate all-equal case as all-pass (v*n == sum for everyone).
    if (vn * 1000 < rhs || vn == sum) out = bitmap_set(out, i);
  }
  return out;
}

// ---- Fast path ------------------------------------------------------------
//
// The fast path computes the same exact fixed-point predicate, but hoists
// the per-element 128-bit cross-multiplications out of the loop: with
// N = n*1000 > 0 and integers v,
//
//   v*N < sum*(1000 + tpm)   <=>   v <= floor((sum*(1000 + tpm) - 1) / N)
//   v*n == sum               <=>   N | sum*1000  and  v == sum*1000 / N
//
// so each stage needs one exact 128-bit floor division up front and the
// per-candidate work collapses to two 64-bit compares. The quotients are
// clamped to int64 (v itself always fits): a quotient above INT64_MAX
// keeps every candidate, one below INT64_MIN keeps none.
struct CountThreshold {
  int64_t below = 0;      // keep if v <= below (when any_below)
  int64_t equal = 0;      // or v == equal (the all-equal rule, when eq_valid)
  uint64_t any_below = 0;
  uint64_t eq_valid = 0;
};

// Reciprocal table for the per-stage divisors N = n*1000, n in [1, 64]:
// m[n] = floor(2^73 / N). For any x < 2^64, q_hat = (x * m[n]) >> 73
// equals floor(x/N) or falls exactly one short (the truncation error is
// below x/2^73 < 2^-9 of a quotient step), so a single multiply-and-compare
// fixup makes it exact — ~10 cycles against ~36 for a 64-bit idiv.
constexpr uint32_t kDivShift = 9;  // 2^9 < min divisor 1000, so m fits u64

struct NMagicTable {
  uint64_t m[65];
};
constexpr NMagicTable make_nmagic() {
  NMagicTable t{};
  for (uint32_t n = 1; n <= 64; ++n) {
    t.m[n] = static_cast<uint64_t>(
        ((unsigned __int128){1} << (64 + kDivShift)) / (n * 1000));
  }
  return t;
}
constexpr NMagicTable kNMagic = make_nmagic();

struct UDiv {
  uint64_t q, r;
};
inline UDiv udiv_n1000(uint64_t x, uint64_t m, uint64_t N) {
  auto q = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(x) * m) >> 64) >> kDivShift;
  uint64_t r = x - q * N;
  if (r >= N) {  // at most one step, see the table comment
    r -= N;
    ++q;
  }
  return {q, r};
}

// floor(x / N) for signed x >= INT64_MIN: for x < 0, with a = |x| - 1 =
// ~x, floor(x/N) = -1 - floor(a/N).
inline int64_t floordiv_n1000(int64_t x, uint64_t m, uint64_t N) {
  if (x >= 0) return static_cast<int64_t>(udiv_n1000(static_cast<uint64_t>(x), m, N).q);
  return -1 - static_cast<int64_t>(udiv_n1000(~static_cast<uint64_t>(x), m, N).q);
}

CountThreshold count_threshold(__int128 sum, uint32_t n, int64_t theta_permille,
                               int64_t narrow_cap) {
  const int64_t N = int64_t{n} * 1000;
  const int64_t scale = 1000 + theta_permille;
  CountThreshold th;

  // Narrow lane: when |sum * scale| stays below 2^63 (the caller hoists
  // narrow_cap = (INT64_MAX - 1) / scale), the floor divisions run through
  // the reciprocal table instead of libgcc's 128-bit division helpers.
  // scale >= 1000 also bounds |sum * 1000| by the same check.
  if (sum <= narrow_cap && sum >= -narrow_cap) {
    const int64_t s64 = static_cast<int64_t>(sum);
    const uint64_t mg = kNMagic.m[n];
    const auto uN = static_cast<uint64_t>(N);
    th.below = floordiv_n1000(s64 * scale - 1, mg, uN);
    th.any_below = 1;
    // Divisible iff the unsigned remainder of |s1000| (via ~x = |x|-1 for
    // the negative side) lands on 0 / N-1 respectively.
    const int64_t s1000 = s64 * 1000;
    if (s1000 >= 0) {
      const UDiv d = udiv_n1000(static_cast<uint64_t>(s1000), mg, uN);
      th.equal = static_cast<int64_t>(d.q);
      th.eq_valid = static_cast<uint64_t>(d.r == 0);
    } else {
      const UDiv d = udiv_n1000(~static_cast<uint64_t>(s1000), mg, uN);
      th.equal = -1 - static_cast<int64_t>(d.q);
      th.eq_valid = static_cast<uint64_t>(d.r == uN - 1);
    }
    return th;
  }

  const __int128 r = sum * scale - 1;
  __int128 q = r / N;
  if (r % N < 0) --q;  // C++ division truncates; we need the floor
  if (q >= INT64_MAX) {
    th.below = INT64_MAX;
    th.any_below = 1;
  } else if (q >= INT64_MIN) {
    th.below = static_cast<int64_t>(q);
    th.any_below = 1;
  }
  const __int128 s1000 = sum * 1000;
  const __int128 qe = s1000 / N;
  if (s1000 % N == 0 && qe <= INT64_MAX && qe >= INT64_MIN) {
    th.equal = static_cast<int64_t>(qe);
    th.eq_valid = 1;
  }
  return th;
}

// Sums stay exact in wrapping uint64 arithmetic as long as every term's
// magnitude is below 2^57 (64 terms * 2^57 <= 2^63). Each walk tags the
// values it accumulated with `v ^ (v >> 63)` (an |v|-preserving encode);
// if the OR of the tags reaches the bound, the sum is redone in 128-bit.
constexpr uint64_t kNarrowSumBound = uint64_t{1} << 57;

struct WalkOut {
  uint64_t out = 0;       // survivors of this stage
  uint64_t wrap_sum = 0;  // next stage's metric summed over the survivors
  uint64_t enc_or = 0;    // OR of magnitude tags for the summed values
};

// One cascade step: walk the set bits of `cand` with `t &= t - 1`, build
// the keep mask arithmetically (no data-dependent branch), and accumulate
// the NEXT stage's metric over the survivors in the same pass — the
// cascade never re-walks a candidate set just to sum it.
template <typename KeepFn>
WalkOut walk_stage(uint64_t cand, KeepFn&& keep_of, const int64_t* next_metric) {
  WalkOut wo;
  if (next_metric != nullptr) {
    for (uint64_t t = cand; t != 0; t &= t - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(t));
      const uint64_t keep = keep_of(i);
      wo.out |= keep << i;
      const int64_t mv = next_metric[i] & -static_cast<int64_t>(keep);
      wo.wrap_sum += static_cast<uint64_t>(mv);
      wo.enc_or |= static_cast<uint64_t>(mv ^ (mv >> 63));
    }
  } else {
    for (uint64_t t = cand; t != 0; t &= t - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(t));
      wo.out |= keep_of(i) << i;
    }
  }
  return wo;
}

// ---- Dense SIMD lane (x86-64, runtime-dispatched) -------------------------
//
// The build targets baseline x86-64, so the dense kernels are compiled
// per-function for AVX2 and selected once at runtime; every other machine
// (and every group slice narrower than 64) takes the scalar walks above.
// Semantics are identical: the lane masks below expand candidate bits so
// non-candidates contribute neither keep bits nor sum terms.
#if defined(__x86_64__) && defined(__GNUC__)
#define HERMES_SCHED_DENSE_SIMD 1
#endif

#if HERMES_SCHED_DENSE_SIMD

bool dense_simd_available() {
  static const bool avail = __builtin_cpu_supports("avx2");
  return avail;
}

// 4-bit candidate nibble -> 4 x i64 all-ones/zero lane masks.
struct LaneMaskTable {
  alignas(32) int64_t v[16][4];
};
constexpr LaneMaskTable make_lane_masks() {
  LaneMaskTable t{};
  for (int b = 0; b < 16; ++b) {
    for (int l = 0; l < 4; ++l) {
      t.v[b][l] = (b >> l) & 1 ? -1 : 0;
    }
  }
  return t;
}
constexpr LaneMaskTable kLaneMasks = make_lane_masks();

__attribute__((target("avx2"))) inline __m256i lane_mask(uint64_t cand,
                                                         int block) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(
      kLaneMasks.v[(cand >> (4 * block)) & 15]));
}

// |v|-preserving magnitude tag, the vector form of v ^ (v >> 63).
__attribute__((target("avx2"))) inline __m256i mag_tag(__m256i v) {
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  return _mm256_xor_si256(v, sign);
}

__attribute__((target("avx2"))) inline uint64_t hsum_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

__attribute__((target("avx2"))) inline uint64_t hor_epi64(__m256i v) {
  const __m128i s = _mm_or_si128(_mm256_castsi256_si128(v),
                                 _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) |
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

// FilterTime over all 64 lanes: keep = !(now - enter > hang), same wrapped
// subtract as the scalar walk, plus the next stage's masked sum.
template <bool kAccumulate>
__attribute__((target("avx2"))) WalkOut
time_stage_dense_avx2(uint64_t cand, const int64_t* enter, int64_t now_ns,
                      int64_t hang_ns, const int64_t* next_metric) {
  const __m256i nowv = _mm256_set1_epi64x(now_ns);
  const __m256i hangv = _mm256_set1_epi64x(hang_ns);
  __m256i acc = _mm256_setzero_si256();
  __m256i tag = _mm256_setzero_si256();
  uint64_t out = 0;
  for (int b = 0; b < 16; ++b) {
    const __m256i e =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(enter + 4 * b));
    const __m256i hung =
        _mm256_cmpgt_epi64(_mm256_sub_epi64(nowv, e), hangv);
    const __m256i keep = _mm256_andnot_si256(hung, lane_mask(cand, b));
    out |= static_cast<uint64_t>(static_cast<uint32_t>(
               _mm256_movemask_pd(_mm256_castsi256_pd(keep))))
           << (4 * b);
    if constexpr (kAccumulate) {
      const __m256i mv = _mm256_and_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(next_metric + 4 * b)),
          keep);
      acc = _mm256_add_epi64(acc, mv);
      tag = _mm256_or_si256(tag, mag_tag(mv));
    }
  }
  WalkOut wo;
  wo.out = out;
  if constexpr (kAccumulate) {
    wo.wrap_sum = hsum_epi64(acc);
    wo.enc_or = hor_epi64(tag);
  }
  return wo;
}

// FilterCount keep pass over all 64 lanes: keep = ((v <= below) & any) |
// ((v == equal) & eq_valid), candidates masked per lane.
template <bool kAccumulate>
__attribute__((target("avx2"))) WalkOut
count_stage_dense_avx2(uint64_t cand, const int64_t* m,
                       const CountThreshold& th, const int64_t* next_metric) {
  const __m256i below = _mm256_set1_epi64x(th.below);
  const __m256i equal = _mm256_set1_epi64x(th.equal);
  const __m256i anym =
      _mm256_set1_epi64x(-static_cast<int64_t>(th.any_below));
  const __m256i eqm = _mm256_set1_epi64x(-static_cast<int64_t>(th.eq_valid));
  __m256i acc = _mm256_setzero_si256();
  __m256i tag = _mm256_setzero_si256();
  uint64_t out = 0;
  for (int b = 0; b < 16; ++b) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 4 * b));
    __m256i keep =
        _mm256_andnot_si256(_mm256_cmpgt_epi64(v, below), anym);
    keep = _mm256_or_si256(
        keep, _mm256_and_si256(_mm256_cmpeq_epi64(v, equal), eqm));
    keep = _mm256_and_si256(keep, lane_mask(cand, b));
    out |= static_cast<uint64_t>(static_cast<uint32_t>(
               _mm256_movemask_pd(_mm256_castsi256_pd(keep))))
           << (4 * b);
    if constexpr (kAccumulate) {
      const __m256i mv = _mm256_and_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(next_metric + 4 * b)),
          keep);
      acc = _mm256_add_epi64(acc, mv);
      tag = _mm256_or_si256(tag, mag_tag(mv));
    }
  }
  WalkOut wo;
  wo.out = out;
  if constexpr (kAccumulate) {
    wo.wrap_sum = hsum_epi64(acc);
    wo.enc_or = hor_epi64(tag);
  }
  return wo;
}

#else
constexpr bool dense_simd_available() { return false; }
#endif  // HERMES_SCHED_DENSE_SIMD

// The cascade over gathered SoA columns (indexed 0..limit-1), starting from
// every worker of the slice. Each stage's walk sums the next stage's metric
// over its survivors, so only a leading count stage pays a separate
// summing pass.
ScheduleResult run_cascade(const int64_t* loop_enter_ns,
                           const int64_t* pending_events,
                           const int64_t* connections, uint32_t limit,
                           int64_t now_ns, int64_t hang_ns, int64_t tpm,
                           const FilterStage* order, uint32_t num_stages) {
  const auto column = [&](FilterStage st) -> const int64_t* {
    switch (st) {
      case FilterStage::Time: return nullptr;  // compared, never summed
      case FilterStage::Connections: return connections;
      case FilterStage::PendingEvents: return pending_events;
    }
    return nullptr;
  };

  // Dense SIMD kernels process all 64 lanes of a full-width group; sparse
  // survivor sets and narrower slices take the scalar bit-walks.
  const bool dense_ok = limit == 64 && dense_simd_available();
  const int64_t narrow_cap = (INT64_MAX - 1) / (1000 + tpm);

  ScheduleResult res;
  uint64_t w = limit == 64 ? ~uint64_t{0} : ((uint64_t{1} << limit) - 1);
  uint64_t wrap_sum = 0;
  uint64_t enc_or = 0;
  auto n = count_nonzero_bits(w);
  for (uint32_t s = 0; s < num_stages && w != 0; ++s) {
    const FilterStage st = order[s];
    const int64_t* next_m =
        s + 1 < num_stages ? column(order[s + 1]) : nullptr;
    const bool dense = dense_ok && n >= 16;

    WalkOut wo;
    if (st == FilterStage::Time) {
      // Same predicate as is_hung(), evaluated branchlessly per set bit.
#if HERMES_SCHED_DENSE_SIMD
      if (dense) {
        wo = next_m != nullptr
                 ? time_stage_dense_avx2<true>(w, loop_enter_ns, now_ns,
                                               hang_ns, next_m)
                 : time_stage_dense_avx2<false>(w, loop_enter_ns, now_ns,
                                                hang_ns, nullptr);
      } else
#endif
      {
        wo = walk_stage(
            w,
            [&](unsigned i) {
              return static_cast<uint64_t>(
                  !(now_ns - loop_enter_ns[i] > hang_ns));
            },
            next_m);
      }
    } else {
      const int64_t* m = column(st);
      if (s == 0) {
        // Every later stage's column was summed by the previous stage's
        // walk; the leading stage takes one extra pass over the candidates.
        for (uint64_t t = w; t != 0; t &= t - 1) {
          const int64_t v = m[std::countr_zero(t)];
          wrap_sum += static_cast<uint64_t>(v);
          enc_or |= static_cast<uint64_t>(v ^ (v >> 63));
        }
      }
      __int128 sum;
      if (enc_or < kNarrowSumBound) {
        sum = static_cast<int64_t>(wrap_sum);
      } else {
        // Magnitudes near 2^63: redo the sum exactly in 128-bit (rare).
        __int128 wide = 0;
        for (uint64_t t = w; t != 0; t &= t - 1) {
          wide += m[std::countr_zero(t)];
        }
        sum = wide;
      }
      const CountThreshold th = count_threshold(sum, n, tpm, narrow_cap);
#if HERMES_SCHED_DENSE_SIMD
      if (dense) {
        wo = next_m != nullptr
                 ? count_stage_dense_avx2<true>(w, m, th, next_m)
                 : count_stage_dense_avx2<false>(w, m, th, nullptr);
      } else
#endif
      {
        wo = walk_stage(
            w,
            [&](unsigned i) {
              const int64_t v = m[i];
              return (static_cast<uint64_t>(v <= th.below) & th.any_below) |
                     (th.eq_valid & static_cast<uint64_t>(v == th.equal));
            },
            next_m);
      }
    }

    w = wo.out;
    n = count_nonzero_bits(w);
    wrap_sum = wo.wrap_sum;
    enc_or = wo.enc_or;
    switch (st) {
      case FilterStage::Time: res.after_time = n; break;
      case FilterStage::Connections: res.after_conn = n; break;
      case FilterStage::PendingEvents: res.after_event = n; break;
    }
  }

  res.bitmap = w;
  res.selected = count_nonzero_bits(w);
  return res;
}

}  // namespace

ScheduleResult Scheduler::schedule(const WorkerStatusTable& wst, SimTime now,
                                   WorkerId base, uint32_t limit) const {
  return schedule_with_order(wst, now, cfg_.stage_order, cfg_.num_stages,
                             base, limit);
}

ScheduleResult Scheduler::schedule_with_order(const WorkerStatusTable& wst,
                                              SimTime now,
                                              const FilterStage* order,
                                              uint32_t num_stages,
                                              WorkerId base,
                                              uint32_t limit) const {
  if (limit == 0) {
    limit = wst.num_workers() - base;
  }
  HERMES_CHECK(limit <= kMaxWorkersPerGroup && base + limit <= wst.num_workers());

  // One SoA pass over the slice, then bit-walking filters.
  int64_t enter[kMaxWorkersPerGroup];
  int64_t pending[kMaxWorkersPerGroup];
  int64_t conns[kMaxWorkersPerGroup];
  wst.gather(base, limit, enter, pending, conns);
  return schedule_gathered(enter, pending, conns, limit, now, order,
                           num_stages);
}

ScheduleResult Scheduler::schedule_reference_with_order(
    const WorkerStatusTable& wst, SimTime now, const FilterStage* order,
    uint32_t num_stages, WorkerId base, uint32_t limit) const {
  if (limit == 0) {
    limit = wst.num_workers() - base;
  }
  HERMES_CHECK(limit <= kMaxWorkersPerGroup && base + limit <= wst.num_workers());

  // Snapshot the slice once: each metric is an individual atomic read; the
  // table is read lock-free while writers keep updating (paper §5.3.1).
  WorkerSnapshot snaps[kMaxWorkersPerGroup];
  for (uint32_t i = 0; i < limit; ++i) {
    snaps[i] = wst.read(base + i);
  }

  const int64_t tpm = theta_permille_of(cfg_.theta_ratio);
  ScheduleResult res;
  WorkerBitmap w = limit == 64 ? ~0ull : ((1ull << limit) - 1);

  for (uint32_t s = 0; s < num_stages; ++s) {
    switch (order[s]) {
      case FilterStage::Time: {
        WorkerBitmap out = 0;
        for (uint32_t i = 0; i < limit; ++i) {
          if (bitmap_test(w, i) && !is_hung(snaps[i], now)) {
            out = bitmap_set(out, i);
          }
        }
        w = out;
        res.after_time = count_nonzero_bits(w);
        break;
      }
      case FilterStage::Connections:
        w = filter_count(w, base, limit, tpm,
                         [&](WorkerId id) { return snaps[id - base].connections; });
        res.after_conn = count_nonzero_bits(w);
        break;
      case FilterStage::PendingEvents:
        w = filter_count(w, base, limit, tpm, [&](WorkerId id) {
          return snaps[id - base].pending_events;
        });
        res.after_event = count_nonzero_bits(w);
        break;
    }
  }

  res.bitmap = w;
  res.selected = count_nonzero_bits(w);
  return res;
}

ScheduleResult Scheduler::schedule_gathered(const int64_t* loop_enter_ns,
                                            const int64_t* pending_events,
                                            const int64_t* connections,
                                            uint32_t limit, SimTime now,
                                            const FilterStage* order,
                                            uint32_t num_stages) const {
  HERMES_CHECK(limit <= kMaxWorkersPerGroup);
  return run_cascade(loop_enter_ns, pending_events, connections, limit,
                     now.ns(), cfg_.hang_threshold.ns(),
                     theta_permille_of(cfg_.theta_ratio), order, num_stages);
}

}  // namespace hermes::core
