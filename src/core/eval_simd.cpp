#include "core/eval_simd.hpp"

#include <algorithm>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/eval_raw.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CDD_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CDD_SIMD_NEON 1
#endif

namespace cdd::raw {

namespace {

// ---------------------------------------------------------------------------
// Portable lane-transposed kernels (the compile-time NEON backend).
//
// One lane per candidate, outer loop over sequence positions.  Every lane
// update is a branch-free select on exactly the condition the scalar
// EvalCddFused / EvalUcddcpOnePass evaluates, so the per-lane arithmetic
// is the scalar algorithm verbatim — the compiler maps the K-wide inner
// loops onto Advanced SIMD on aarch64 and onto whatever the host offers
// elsewhere.
// ---------------------------------------------------------------------------

template <int K>
void CddLanesPortable(std::int32_t n, Time d, const JobId* seqs,
                      const std::int64_t* row_off, const Time* proc,
                      const Cost* alpha, const Cost* beta, Cost* cost_out,
                      std::int64_t* pinned_out, Time* offset_out) noexcept {
  Time c[K] = {};
  Time prefix_tau[K] = {};
  std::int64_t tau[K];
  Cost pe[K] = {};
  Cost pl[K] = {};
  Cost cost[K] = {};
  for (int k = 0; k < K; ++k) tau[k] = -1;

  for (std::int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < K; ++k) {
      const JobId j = seqs[row_off[k] + i];
      const Time pj = proc[j];
      const Cost aj = alpha[j];
      const Cost bj = beta[j];
      c[k] += pj;
      const bool early = c[k] <= d;
      tau[k] = early ? i : tau[k];
      prefix_tau[k] = early ? c[k] : prefix_tau[k];
      pe[k] += early ? aj : Cost{0};
      pl[k] += early ? Cost{0} : bj;
      cost[k] += early ? aj * (d - c[k]) : bj * (c[k] - d);
    }
  }

  Time offset[K] = {};
  std::int64_t pinned[K];
  bool active[K];
  bool any = false;
  for (int k = 0; k < K; ++k) {
    const bool has_tau = tau[k] >= 0;
    const bool slide = has_tau && prefix_tau[k] < d && pl[k] < pe[k];
    const bool at_bp = has_tau && prefix_tau[k] >= d;
    offset[k] = slide ? d - prefix_tau[k] : Time{0};
    cost[k] += slide ? offset[k] * (pl[k] - pe[k]) : Cost{0};
    pinned[k] = (slide || at_bp) ? tau[k] : std::int64_t{-1};
    active[k] = pinned[k] > 0;
    any = any || active[k];
  }

  // Crossing loop of Theorem 1 with masked lane retirement: a lane leaves
  // the walk exactly when its scalar counterpart would break.
  while (any) {
    any = false;
    for (int k = 0; k < K; ++k) {
      if (!active[k]) continue;
      const JobId j = seqs[row_off[k] + pinned[k]];
      const Cost pl_next = pl[k] + beta[j];
      const Cost pe_next = pe[k] - alpha[j];
      if (pl_next < pe_next) {
        const Time pj = proc[j];
        offset[k] += pj;
        cost[k] += pj * (pl_next - pe_next);
        pl[k] = pl_next;
        pe[k] = pe_next;
        --pinned[k];
        active[k] = pinned[k] > 0;
      } else {
        active[k] = false;
      }
      any = any || active[k];
    }
  }

  for (int k = 0; k < K; ++k) {
    cost_out[k] = cost[k];
    pinned_out[k] = pinned[k];
    offset_out[k] = offset[k];
  }
}

/// The one-pass UCDDCP walk of EvalUcddcpOnePass over K lanes: a masked
/// backward walk whose lanes retire at their own due-date position r, then
/// a forward walk masked up to the largest r.  A lane's sb / pe (and pa)
/// are dead once it retires, so they update unconditionally and only the
/// cost terms and r are masked.
template <int K>
void UcddcpLanesPortable(std::int32_t n, Time d, const JobId* seqs,
                         const std::int64_t* row_off, const Time* proc,
                         const Time* minproc, const Cost* alpha,
                         const Cost* beta, const Cost* gamma, Cost sum_alpha,
                         Cost* cost_out, std::int64_t* pinned_out,
                         Time* offset_out) noexcept {
  Cost cost[K] = {};
  Cost sb[K] = {};
  Cost pe[K];
  std::int64_t r[K];
  bool active[K];
  for (int k = 0; k < K; ++k) {
    pe[k] = sum_alpha;
    r[k] = n - 1;
    active[k] = true;
  }

  bool any = true;
  for (std::int32_t p = n - 1; any && p > 0; --p) {
    any = false;
    for (int k = 0; k < K; ++k) {
      const JobId j = seqs[row_off[k] + p];
      sb[k] += beta[j];
      pe[k] -= alpha[j];
      const bool cross = active[k] && sb[k] < pe[k];
      const Time x = (sb[k] > gamma[j]) ? proc[j] - minproc[j] : Time{0};
      cost[k] += cross ? (proc[j] - x) * sb[k] + gamma[j] * x : Cost{0};
      r[k] -= cross ? 1 : 0;
      active[k] = cross;
      any = any || cross;
    }
  }

  std::int64_t rmax = r[0];
  for (int k = 1; k < K; ++k) rmax = std::max(rmax, r[k]);
  Time compressed[K] = {};
  Cost pa[K] = {};
  for (std::int64_t e = 0; e <= rmax; ++e) {
    for (int k = 0; k < K; ++k) {
      const bool act = e <= r[k];
      const JobId j = seqs[row_off[k] + e];
      const Time x = (pa[k] > gamma[j]) ? proc[j] - minproc[j] : Time{0};
      cost[k] += act ? (proc[j] - x) * pa[k] + gamma[j] * x : Cost{0};
      compressed[k] += act ? proc[j] - x : Time{0};
      pa[k] += alpha[j];
    }
  }

  for (int k = 0; k < K; ++k) {
    cost_out[k] = cost[k];
    offset_out[k] = d - compressed[k];
    pinned_out[k] = r[k];
  }
}

/// Lanes per group in the portable kernels: 2x64-bit matches one NEON
/// vector register (and keeps the x86 test build honest about what the
/// aarch64 build executes).
constexpr int kPortableLanes = 2;

template <int K>
void StoreLanes(const Cost* cost, const std::int64_t* pinned,
                const Time* offset, std::int32_t b, Cost* costs,
                std::int32_t* pinned_out, Time* offsets_out) noexcept {
  for (int k = 0; k < K; ++k) {
    costs[b + k] = cost[k];
    if (pinned_out != nullptr) {
      pinned_out[b + k] = static_cast<std::int32_t>(pinned[k]);
    }
    if (offsets_out != nullptr) offsets_out[b + k] = offset[k];
  }
}

#if defined(CDD_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 candidates per vector, 64-bit lanes.
//
// Two structural facts make the hot loop cheap:
//
//  * The completion time c only grows, so the early/tardy condition is
//    monotone per lane.  The position scan therefore splits into an
//    all-early phase, a short mixed phase around the due-date crossing,
//    and an all-tardy phase — the two long phases carry no masks, no
//    blends, and touch only the fields they need.
//  * With 16-bit instance fields and 31-bit field sums (see Packable)
//    every partial sum — c, pe, pl, |c - d|, the walk prefixes — stays
//    below 2^31, so every product is one vpmuludq (32x32 -> 64, exact).
//
// Each CDD phase reads one 32-bit packed word per lane and step,
// (alpha << 16) | proc in the early phase and (beta << 16) | proc in the
// tardy phase, assembled with plain scalar loads: vpgather is microcoded
// on most production x86 cores (and slowed further by the Downfall
// mitigation), four independent loads are not.  On CDD the breakpoint
// slide and Theorem-1 crossing walk run scalar per lane — with d < sum P
// they touch a few positions around the due date.
//
// UCDDCP is different: with d >= sum P the crossing walk starts at n-1
// and covers about 40% of the row, so the UCDDCP kernel is the one-pass
// walk of EvalUcddcpOnePass in lockstep — a masked backward walk that
// decides the crossings and adds the tardy terms, then the forward early
// walk — with no CDD pass underneath.
// ---------------------------------------------------------------------------

constexpr std::int64_t kFieldLimit = std::int64_t{1} << 16;
constexpr std::int64_t kSumLimit = std::int64_t{1} << 31;

/// The AVX2 kernels require every instance field to fit 16 bits and every
/// field sum (and d) to fit 31 bits — see the block comment above.  Every
/// benchmark family is orders of magnitude inside these bounds (P_i <= 20,
/// penalties <= 15); wider instances take the scalar batch, which is
/// bit-identical anyway.
bool Packable(std::int32_t n, Time d, const Time* proc, const Cost* alpha,
              const Cost* beta) noexcept {
  if (d < 0 || d >= kSumLimit) return false;
  std::int64_t sp = 0;
  std::int64_t sa = 0;
  std::int64_t sb = 0;
  for (std::int32_t j = 0; j < n; ++j) {
    if (proc[j] < 0 || proc[j] >= kFieldLimit) return false;
    if (alpha[j] < 0 || alpha[j] >= kFieldLimit) return false;
    if (beta[j] < 0 || beta[j] >= kFieldLimit) return false;
    sp += proc[j];
    sa += alpha[j];
    sb += beta[j];
  }
  return sp < kSumLimit && sa < kSumLimit && sb < kSumLimit;
}

/// The UCDDCP kernel's extra bounds: M_i and gamma_i fit 16 bits and
/// M_i <= P_i, so the reducible amount P_i - M_i is a 16-bit field too.
bool Packable2(std::int32_t n, const Time* proc, const Time* minproc,
               const Cost* gamma) noexcept {
  for (std::int32_t j = 0; j < n; ++j) {
    if (minproc[j] < 0 || minproc[j] > proc[j]) return false;
    if (gamma[j] < 0 || gamma[j] >= kFieldLimit) return false;
  }
  return true;
}

/// (alpha << 16) | proc, one 32-bit word per job id — everything an
/// early-phase step touches in one load.
const std::uint32_t* PackEarly32(std::int32_t n, const Time* proc,
                                 const Cost* alpha) {
  static thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) {
    scratch[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>((alpha[j] << 16) | proc[j]);
  }
  return scratch.data();
}

/// (beta << 16) | proc, one 32-bit word per job id (tardy-phase data).
const std::uint32_t* PackTardy32(std::int32_t n, const Time* proc,
                                 const Cost* beta) {
  static thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) {
    scratch[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>((beta[j] << 16) | proc[j]);
  }
  return scratch.data();
}

/// Four packed words — one per candidate lane — zero-extended into the
/// 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i Lanes32(
    const std::uint32_t* pack, JobId j0, JobId j1, JobId j2,
    JobId j3) noexcept {
  return _mm256_cvtepu32_epi64(
      _mm_setr_epi32(static_cast<int>(pack[j0]), static_cast<int>(pack[j1]),
                     static_cast<int>(pack[j2]),
                     static_cast<int>(pack[j3])));
}

/// Resumable per-group walk state: the EvalCddFused kernel split into its
/// phases so 8-candidate processing can software-pipeline two 4-lane
/// groups through the long scans (two independent dependency chains per
/// step) while keeping every per-lane operation — order included —
/// identical to the single-group kernel, i.e. bit-identical results.
struct CddGroupState {
  const JobId* r0;
  const JobId* r1;
  const JobId* r2;
  const JobId* r3;
  __m256i c;
  __m256i pe;
  __m256i pl;
  __m256i cost;
  __m256i tau;
  __m256i prefix_tau;
  bool entered_mixed;
  std::int32_t i;
};

__attribute__((target("avx2"))) inline CddGroupState CddGroupInit(
    const JobId* seqs, std::int64_t row0, std::int64_t stride) noexcept {
  CddGroupState s;
  s.r0 = seqs + row0;
  s.r1 = s.r0 + stride;
  s.r2 = s.r1 + stride;
  s.r3 = s.r2 + stride;
  s.c = _mm256_setzero_si256();
  s.pe = _mm256_setzero_si256();
  s.pl = _mm256_setzero_si256();
  s.cost = _mm256_setzero_si256();
  s.tau = _mm256_setzero_si256();
  s.prefix_tau = _mm256_setzero_si256();
  s.entered_mixed = false;
  s.i = 0;
  return s;
}

/// All-early phase: runs until the first lane's completion time would
/// cross d; that position is left uncommitted for the mixed phase.
__attribute__((target("avx2"))) inline void CddAllEarlyPhase(
    CddGroupState& s, std::int32_t n, __m256i vd, __m256i low16,
    const std::uint32_t* packE) noexcept {
  while (s.i < n) {
    const __m256i w =
        Lanes32(packE, s.r0[s.i], s.r1[s.i], s.r2[s.i], s.r3[s.i]);
    const __m256i pj = _mm256_and_si256(w, low16);
    const __m256i aj = _mm256_srli_epi64(w, 16);
    const __m256i c_next = _mm256_add_epi64(s.c, pj);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpgt_epi64(c_next, vd))) != 0) {
      break;
    }
    s.c = c_next;
    s.pe = _mm256_add_epi64(s.pe, aj);
    s.cost = _mm256_add_epi64(
        s.cost, _mm256_mul_epu32(aj, _mm256_sub_epi64(vd, c_next)));
    ++s.i;
  }
}

/// Mixed phase: lanes cross d at different positions, so the early/tardy
/// split is a mask.  tau counts the early steps (monotone, so a masked
/// increment replaces the blend) and prefix_tau tracks c over them.
__attribute__((target("avx2"))) inline void CddMixedPhase(
    CddGroupState& s, std::int32_t n, __m256i vd, __m256i low16,
    __m256i neg1, const std::uint32_t* packE,
    const std::uint32_t* packT) noexcept {
  if (s.i >= n) return;
  s.entered_mixed = true;
  s.tau = _mm256_set1_epi64x(s.i - 1);
  s.prefix_tau = s.c;
  while (s.i < n) {
    const __m256i wE =
        Lanes32(packE, s.r0[s.i], s.r1[s.i], s.r2[s.i], s.r3[s.i]);
    const __m256i wT =
        Lanes32(packT, s.r0[s.i], s.r1[s.i], s.r2[s.i], s.r3[s.i]);
    const __m256i pj = _mm256_and_si256(wE, low16);
    const __m256i aj = _mm256_srli_epi64(wE, 16);
    const __m256i bj = _mm256_srli_epi64(wT, 16);
    s.c = _mm256_add_epi64(s.c, pj);
    const __m256i tardy = _mm256_cmpgt_epi64(s.c, vd);
    const __m256i early = _mm256_xor_si256(tardy, neg1);
    s.tau = _mm256_sub_epi64(s.tau, early);  // tau += 1 in early lanes
    s.prefix_tau =
        _mm256_add_epi64(s.prefix_tau, _mm256_and_si256(early, pj));
    s.pe = _mm256_add_epi64(s.pe, _mm256_and_si256(early, aj));
    s.pl = _mm256_add_epi64(s.pl, _mm256_and_si256(tardy, bj));
    // dist = |c - d| via conditional negate: t in tardy lanes, -t early.
    const __m256i t = _mm256_sub_epi64(s.c, vd);
    const __m256i dist =
        _mm256_sub_epi64(_mm256_xor_si256(t, early), early);
    const __m256i pen = _mm256_blendv_epi8(aj, bj, tardy);
    s.cost = _mm256_add_epi64(s.cost, _mm256_mul_epu32(pen, dist));
    ++s.i;
    if (_mm256_movemask_pd(_mm256_castsi256_pd(tardy)) == 0xf) break;
  }
}

/// One all-tardy position: tardiness is monotone, so no lane re-enters.
__attribute__((target("avx2"))) inline void CddTardyStep(
    CddGroupState& s, __m256i vd, __m256i low16,
    const std::uint32_t* packT) noexcept {
  const __m256i w =
      Lanes32(packT, s.r0[s.i], s.r1[s.i], s.r2[s.i], s.r3[s.i]);
  const __m256i pj = _mm256_and_si256(w, low16);
  const __m256i bj = _mm256_srli_epi64(w, 16);
  s.c = _mm256_add_epi64(s.c, pj);
  s.pl = _mm256_add_epi64(s.pl, bj);
  s.cost = _mm256_add_epi64(
      s.cost, _mm256_mul_epu32(bj, _mm256_sub_epi64(s.c, vd)));
  ++s.i;
}

/// Breakpoint slide and Theorem-1 crossing walk, scalar per lane — the
/// arithmetic is EvalCddFused's tail verbatim, so results stay
/// bit-identical.
__attribute__((target("avx2"))) inline void CddGroupFinish(
    const CddGroupState& s, std::int32_t n, Time d,
    const std::uint32_t* packE, const std::uint32_t* packT, __m256i& cost_v,
    __m256i& offset_v, __m256i& pinned_v) noexcept {
  alignas(32) std::int64_t pe_a[4];
  alignas(32) std::int64_t pl_a[4];
  alignas(32) std::int64_t cost_a[4];
  alignas(32) std::int64_t tau_a[4];
  alignas(32) std::int64_t pt_a[4];
  alignas(32) std::int64_t pin_a[4];
  alignas(32) std::int64_t off_a[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(pe_a), s.pe);
  _mm256_store_si256(reinterpret_cast<__m256i*>(pl_a), s.pl);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cost_a), s.cost);
  if (s.entered_mixed) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tau_a), s.tau);
    _mm256_store_si256(reinterpret_cast<__m256i*>(pt_a), s.prefix_tau);
  } else {
    // Every position stayed early in every lane: tau is the last index
    // and prefix_tau the full completion time.
    _mm256_store_si256(reinterpret_cast<__m256i*>(pt_a), s.c);
    for (int k = 0; k < 4; ++k) tau_a[k] = n - 1;
  }

  const JobId* rows[4] = {s.r0, s.r1, s.r2, s.r3};
  for (int k = 0; k < 4; ++k) {
    Cost cost_k = cost_a[k];
    Cost pe_k = pe_a[k];
    Cost pl_k = pl_a[k];
    std::int64_t pinned = -1;
    Time offset = 0;
    if (tau_a[k] >= 0) {
      const bool slide = pt_a[k] < d && pl_k < pe_k;
      if (slide) {
        offset = d - pt_a[k];
        cost_k += offset * (pl_k - pe_k);
      }
      if (slide || pt_a[k] >= d) pinned = tau_a[k];
    }
    while (pinned > 0) {
      const JobId j = rows[k][pinned];
      const Cost aj = static_cast<Cost>(packE[j] >> 16);
      const Cost bj = static_cast<Cost>(packT[j] >> 16);
      const Cost pl_next = pl_k + bj;
      const Cost pe_next = pe_k - aj;
      if (pl_next >= pe_next) break;
      const Time pj = static_cast<Time>(packE[j] & 0xffff);
      offset += pj;
      cost_k += pj * (pl_next - pe_next);
      pl_k = pl_next;
      pe_k = pe_next;
      --pinned;
    }
    cost_a[k] = cost_k;
    pin_a[k] = pinned;
    off_a[k] = offset;
  }
  cost_v = _mm256_load_si256(reinterpret_cast<const __m256i*>(cost_a));
  pinned_v = _mm256_load_si256(reinterpret_cast<const __m256i*>(pin_a));
  offset_v = _mm256_load_si256(reinterpret_cast<const __m256i*>(off_a));
}

/// The EvalCddFused walk over 4 lanes; leaves the per-lane cost, offset
/// and pinned position in the output vectors.
__attribute__((target("avx2"))) inline void CddLanesAvx2(
    std::int32_t n, Time d, const JobId* seqs, std::int64_t row0,
    std::int64_t stride, const std::uint32_t* packE,
    const std::uint32_t* packT, __m256i& cost_v, __m256i& offset_v,
    __m256i& pinned_v) noexcept {
  const __m256i vd = _mm256_set1_epi64x(d);
  const __m256i neg1 = _mm256_set1_epi64x(-1);
  const __m256i low16 = _mm256_set1_epi64x(0xffff);
  CddGroupState s = CddGroupInit(seqs, row0, stride);
  CddAllEarlyPhase(s, n, vd, low16, packE);
  CddMixedPhase(s, n, vd, low16, neg1, packE, packT);
  while (s.i < n) CddTardyStep(s, vd, low16, packT);
  CddGroupFinish(s, n, d, packE, packT, cost_v, offset_v, pinned_v);
}

/// The EvalCddFused walk over 8 lanes as two interleaved 4-lane groups.
/// The long scans carry both groups per iteration: the all-early phase
/// advances them in lockstep while neither crosses d, the all-tardy phase
/// pairs one step of each (the groups sit at independent positions after
/// their mixed phases).  Interleaving only reorders operations *between*
/// groups — per-lane order is untouched — so the result is bit-identical
/// to two CddLanesAvx2 calls.
__attribute__((target("avx2"))) inline void CddLanes8Avx2(
    std::int32_t n, Time d, const JobId* seqs, std::int64_t row0,
    std::int64_t stride, const std::uint32_t* packE,
    const std::uint32_t* packT, __m256i cost_v[2], __m256i offset_v[2],
    __m256i pinned_v[2]) noexcept {
  const __m256i vd = _mm256_set1_epi64x(d);
  const __m256i neg1 = _mm256_set1_epi64x(-1);
  const __m256i low16 = _mm256_set1_epi64x(0xffff);
  CddGroupState a = CddGroupInit(seqs, row0, stride);
  CddGroupState b = CddGroupInit(seqs, row0 + 4 * stride, stride);

  // Interleaved all-early phase: both groups walk the same position until
  // either would cross d; the groups then finish their early phases (the
  // non-crossing one may still have early positions left) independently.
  while (a.i < n) {
    const std::int32_t i = a.i;
    const __m256i wa = Lanes32(packE, a.r0[i], a.r1[i], a.r2[i], a.r3[i]);
    const __m256i wb = Lanes32(packE, b.r0[i], b.r1[i], b.r2[i], b.r3[i]);
    const __m256i pja = _mm256_and_si256(wa, low16);
    const __m256i pjb = _mm256_and_si256(wb, low16);
    const __m256i aja = _mm256_srli_epi64(wa, 16);
    const __m256i ajb = _mm256_srli_epi64(wb, 16);
    const __m256i cna = _mm256_add_epi64(a.c, pja);
    const __m256i cnb = _mm256_add_epi64(b.c, pjb);
    const int cross_a = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(cna, vd)));
    const int cross_b = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(cnb, vd)));
    if ((cross_a | cross_b) != 0) break;
    a.c = cna;
    a.pe = _mm256_add_epi64(a.pe, aja);
    a.cost = _mm256_add_epi64(
        a.cost, _mm256_mul_epu32(aja, _mm256_sub_epi64(vd, cna)));
    ++a.i;
    b.c = cnb;
    b.pe = _mm256_add_epi64(b.pe, ajb);
    b.cost = _mm256_add_epi64(
        b.cost, _mm256_mul_epu32(ajb, _mm256_sub_epi64(vd, cnb)));
    ++b.i;
  }
  CddAllEarlyPhase(a, n, vd, low16, packE);
  CddAllEarlyPhase(b, n, vd, low16, packE);

  // Mixed phases are short (a handful of positions around d) — no
  // interleave needed.
  CddMixedPhase(a, n, vd, low16, neg1, packE, packT);
  CddMixedPhase(b, n, vd, low16, neg1, packE, packT);

  // Interleaved all-tardy phase at independent positions.
  while (a.i < n && b.i < n) {
    CddTardyStep(a, vd, low16, packT);
    CddTardyStep(b, vd, low16, packT);
  }
  while (a.i < n) CddTardyStep(a, vd, low16, packT);
  while (b.i < n) CddTardyStep(b, vd, low16, packT);

  CddGroupFinish(a, n, d, packE, packT, cost_v[0], offset_v[0],
                 pinned_v[0]);
  CddGroupFinish(b, n, d, packE, packT, cost_v[1], offset_v[1],
                 pinned_v[1]);
}

__attribute__((target("avx2"))) inline void Store4Avx2(
    __m256i cost, __m256i pinned, __m256i offset, std::int32_t b,
    Cost* costs, std::int32_t* pinned_out, Time* offsets_out) noexcept {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), cost);
  StoreLanes<4>(lanes, lanes, lanes, 0, costs + b, nullptr, nullptr);
  if (pinned_out != nullptr) {
    alignas(32) std::int64_t p[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), pinned);
    for (int k = 0; k < 4; ++k) {
      pinned_out[b + k] = static_cast<std::int32_t>(p[k]);
    }
  }
  if (offsets_out != nullptr) {
    alignas(32) std::int64_t o[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(o), offset);
    for (int k = 0; k < 4; ++k) offsets_out[b + k] = o[k];
  }
}

__attribute__((target("avx2"))) void EvalCddGroupAvx2(
    std::int32_t n, Time d, const JobId* seqs, std::int64_t row0,
    std::int64_t stride, const std::uint32_t* packE,
    const std::uint32_t* packT, std::int32_t b, Cost* costs,
    std::int32_t* pinned_out, Time* offsets_out) noexcept {
  __m256i cost;
  __m256i offset;
  __m256i pinned;
  CddLanesAvx2(n, d, seqs, row0, stride, packE, packT, cost, offset,
               pinned);
  Store4Avx2(cost, pinned, offset, b, costs, pinned_out, offsets_out);
}

__attribute__((target("avx2"))) void EvalCddGroup8Avx2(
    std::int32_t n, Time d, const JobId* seqs, std::int64_t row0,
    std::int64_t stride, const std::uint32_t* packE,
    const std::uint32_t* packT, std::int32_t b, Cost* costs,
    std::int32_t* pinned_out, Time* offsets_out) noexcept {
  __m256i cost[2];
  __m256i offset[2];
  __m256i pinned[2];
  CddLanes8Avx2(n, d, seqs, row0, stride, packE, packT, cost, offset,
                pinned);
  Store4Avx2(cost[0], pinned[0], offset[0], b, costs, pinned_out,
             offsets_out);
  Store4Avx2(cost[1], pinned[1], offset[1], b + 4, costs, pinned_out,
             offsets_out);
}

/// P | (P - M) << 16 | alpha << 32 | gamma << 48, one 64-bit word per job
/// id: every field a UCDDCP step reads except beta.
const std::uint64_t* PackUcddcp64(std::int32_t n, const Time* proc,
                                  const Time* minproc, const Cost* alpha,
                                  const Cost* gamma) {
  static thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) {
    scratch[static_cast<std::size_t>(j)] =
        static_cast<std::uint64_t>(proc[j]) |
        static_cast<std::uint64_t>(proc[j] - minproc[j]) << 16 |
        static_cast<std::uint64_t>(alpha[j]) << 32 |
        static_cast<std::uint64_t>(gamma[j]) << 48;
  }
  return scratch.data();
}

/// beta, one 32-bit word per job id (the backward walk's fifth field).
const std::uint32_t* PackBeta32(std::int32_t n, const Cost* beta) {
  static thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) {
    scratch[static_cast<std::size_t>(j)] = static_cast<std::uint32_t>(beta[j]);
  }
  return scratch.data();
}

/// Four packed 64-bit words, one per candidate lane.
__attribute__((target("avx2"))) inline __m256i Lanes64(
    const std::uint64_t* pack, JobId j0, JobId j1, JobId j2,
    JobId j3) noexcept {
  return _mm256_setr_epi64x(static_cast<long long>(pack[j0]),
                            static_cast<long long>(pack[j1]),
                            static_cast<long long>(pack[j2]),
                            static_cast<long long>(pack[j3]));
}

/// EvalUcddcpOnePass over 4 lanes.  The backward walk is masked: `act`
/// holds the lanes that cross position p, and a lane retires at its own r
/// (kept as n-1 plus its crossing masks, which are -1).  sb only grows and
/// pe only shrinks (Packable admits no negative field), so a lane that
/// stops crossing never crosses again and sb / pe need no mask.  The
/// forward walk is dense up to the smallest r and masked up to the
/// largest.  Every operand comes from independent scalar loads assembled
/// in registers, and every product is one exact vpmuludq (see Packable /
/// Packable2).
__attribute__((target("avx2"))) void EvalUcddcpGroupAvx2(
    std::int32_t n, Time d, const JobId* seqs, std::int64_t row0,
    std::int64_t stride, const std::uint64_t* packW,
    const std::uint32_t* packB, Cost sum_alpha, std::int32_t b, Cost* costs,
    std::int32_t* pinned_out, Time* offsets_out) noexcept {
  const __m256i low16 = _mm256_set1_epi64x(0xffff);
  const JobId* r0 = seqs + row0;
  const JobId* r1 = r0 + stride;
  const JobId* r2 = r1 + stride;
  const JobId* r3 = r2 + stride;
  __m256i cost = _mm256_setzero_si256();
  __m256i sb = _mm256_setzero_si256();
  __m256i pe = _mm256_set1_epi64x(sum_alpha);
  __m256i r = _mm256_set1_epi64x(n - 1);

  for (std::int32_t p = n - 1; p > 0; --p) {
    const __m256i w = Lanes64(packW, r0[p], r1[p], r2[p], r3[p]);
    const __m256i bj = Lanes32(packB, r0[p], r1[p], r2[p], r3[p]);
    const __m256i pj = _mm256_and_si256(w, low16);
    const __m256i rj = _mm256_and_si256(_mm256_srli_epi64(w, 16), low16);
    const __m256i aj = _mm256_and_si256(_mm256_srli_epi64(w, 32), low16);
    const __m256i gj = _mm256_srli_epi64(w, 48);
    sb = _mm256_add_epi64(sb, bj);
    pe = _mm256_sub_epi64(pe, aj);
    const __m256i act = _mm256_cmpgt_epi64(pe, sb);
    r = _mm256_add_epi64(r, act);  // act lanes are -1
    const __m256i x = _mm256_and_si256(_mm256_cmpgt_epi64(sb, gj), rj);
    const __m256i term =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_sub_epi64(pj, x), sb),
                         _mm256_mul_epu32(gj, x));
    cost = _mm256_add_epi64(cost, _mm256_and_si256(act, term));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(act)) == 0) break;
  }

  alignas(32) std::int64_t rl[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(rl), r);
  const std::int64_t rmin = std::min(std::min(rl[0], rl[1]),
                                     std::min(rl[2], rl[3]));
  const std::int64_t rmax = std::max(std::max(rl[0], rl[1]),
                                     std::max(rl[2], rl[3]));
  __m256i pa = _mm256_setzero_si256();
  __m256i comp = _mm256_setzero_si256();
  for (std::int64_t e = 0; e <= rmax; ++e) {
    const __m256i w = Lanes64(packW, r0[e], r1[e], r2[e], r3[e]);
    const __m256i pj = _mm256_and_si256(w, low16);
    const __m256i rj = _mm256_and_si256(_mm256_srli_epi64(w, 16), low16);
    const __m256i aj = _mm256_and_si256(_mm256_srli_epi64(w, 32), low16);
    const __m256i gj = _mm256_srli_epi64(w, 48);
    const __m256i x = _mm256_and_si256(_mm256_cmpgt_epi64(pa, gj), rj);
    __m256i pmx = _mm256_sub_epi64(pj, x);
    __m256i term = _mm256_add_epi64(_mm256_mul_epu32(pmx, pa),
                                    _mm256_mul_epu32(gj, x));
    if (e > rmin) {  // past some lane's r: drop the retired lanes
      const __m256i out = _mm256_cmpgt_epi64(_mm256_set1_epi64x(e), r);
      pmx = _mm256_andnot_si256(out, pmx);
      term = _mm256_andnot_si256(out, term);
    }
    cost = _mm256_add_epi64(cost, term);
    comp = _mm256_add_epi64(comp, pmx);
    pa = _mm256_add_epi64(pa, aj);
  }

  Store4Avx2(cost, r, _mm256_sub_epi64(_mm256_set1_epi64x(d), comp), b,
             costs, pinned_out, offsets_out);
}

#endif  // CDD_SIMD_X86

void PortableLanesCddDriver(std::int32_t n, Time d, const JobId* seqs,
                            std::int32_t stride, std::int32_t batch,
                            const Time* proc, const Cost* alpha,
                            const Cost* beta, Cost* costs,
                            std::int32_t* pinned,
                            Time* offsets) noexcept {
  constexpr int K = kPortableLanes;
  std::int32_t b = 0;
  for (; b + K <= batch; b += K) {
    std::int64_t row_off[K];
    Cost cost[K];
    std::int64_t pin[K];
    Time off[K];
    for (int k = 0; k < K; ++k) {
      row_off[k] = static_cast<std::int64_t>(b + k) * stride;
    }
    CddLanesPortable<K>(n, d, seqs, row_off, proc, alpha, beta, cost, pin,
                        off);
    StoreLanes<K>(cost, pin, off, b, costs, pinned, offsets);
  }
  for (; b < batch; ++b) {
    const EvalResult r = EvalCddFused(
        n, d, seqs + static_cast<std::size_t>(b) * stride, proc, alpha,
        beta);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

void PortableLanesUcddcpDriver(std::int32_t n, Time d, const JobId* seqs,
                               std::int32_t stride, std::int32_t batch,
                               const Time* proc, const Time* minproc,
                               const Cost* alpha, const Cost* beta,
                               const Cost* gamma, Cost* costs,
                               std::int32_t* pinned,
                               Time* offsets) noexcept {
  const UcddcpSums sums = SumUcddcp(n, proc, alpha);
  if (!UcddcpOnePassApplies(d, sums)) {
    EvalUcddcpBatch(n, d, seqs, stride, batch, proc, minproc, alpha, beta,
                    gamma, costs, pinned, offsets);
    return;
  }
  constexpr int K = kPortableLanes;
  std::int32_t b = 0;
  for (; b + K <= batch; b += K) {
    std::int64_t row_off[K];
    Cost cost[K];
    std::int64_t pin[K];
    Time off[K];
    for (int k = 0; k < K; ++k) {
      row_off[k] = static_cast<std::int64_t>(b + k) * stride;
    }
    UcddcpLanesPortable<K>(n, d, seqs, row_off, proc, minproc, alpha, beta,
                           gamma, sums.alpha, cost, pin, off);
    StoreLanes<K>(cost, pin, off, b, costs, pinned, offsets);
  }
  for (; b < batch; ++b) {
    const EvalResult r = EvalUcddcpOnePass(
        n, d, seqs + static_cast<std::size_t>(b) * stride, proc, minproc,
        alpha, beta, gamma, sums.alpha);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

}  // namespace

bool SimdBatchCompiledIn() noexcept {
#if defined(CDD_SIMD_X86) || defined(CDD_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

bool SimdBatchAvailable() noexcept {
#if defined(CDD_SIMD_X86)
  return core::HostCpuFeatures().avx2;
#elif defined(CDD_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

const char* SimdBatchIsa() noexcept {
#if defined(CDD_SIMD_X86)
  return core::HostCpuFeatures().avx2 ? "avx2" : "none";
#elif defined(CDD_SIMD_NEON)
  return "neon";
#else
  return "none";
#endif
}

void EvalCddBatchSimd(std::int32_t n, Time d, const JobId* seqs,
                      std::int32_t stride, std::int32_t batch,
                      const Time* proc, const Cost* alpha, const Cost* beta,
                      Cost* costs, std::int32_t* pinned,
                      Time* offsets) noexcept {
#if defined(CDD_SIMD_X86)
  if (core::HostCpuFeatures().avx2 && Packable(n, d, proc, alpha, beta)) {
    const std::uint32_t* packE = PackEarly32(n, proc, alpha);
    const std::uint32_t* packT = PackTardy32(n, proc, beta);
    std::int32_t b = 0;
    for (; b + 8 <= batch; b += 8) {  // interleaved two-group fast path
      EvalCddGroup8Avx2(n, d, seqs, static_cast<std::int64_t>(b) * stride,
                        stride, packE, packT, b, costs, pinned, offsets);
    }
    for (; b + 4 <= batch; b += 4) {
      EvalCddGroupAvx2(n, d, seqs, static_cast<std::int64_t>(b) * stride,
                       stride, packE, packT, b, costs, pinned, offsets);
    }
    for (; b < batch; ++b) {  // scalar tail
      const EvalResult r = EvalCddFused(
          n, d, seqs + static_cast<std::size_t>(b) * stride, proc, alpha,
          beta);
      costs[b] = r.cost;
      if (pinned != nullptr) pinned[b] = r.pinned;
      if (offsets != nullptr) offsets[b] = r.offset;
    }
    return;
  }
#elif defined(CDD_SIMD_NEON)
  PortableLanesCddDriver(n, d, seqs, stride, batch, proc, alpha, beta,
                         costs, pinned, offsets);
  return;
#endif
  EvalCddBatch(n, d, seqs, stride, batch, proc, alpha, beta, costs, pinned,
               offsets);
}

void EvalUcddcpBatchSimd(std::int32_t n, Time d, const JobId* seqs,
                         std::int32_t stride, std::int32_t batch,
                         const Time* proc, const Time* minproc,
                         const Cost* alpha, const Cost* beta,
                         const Cost* gamma, Cost* costs,
                         std::int32_t* pinned, Time* offsets) noexcept {
#if defined(CDD_SIMD_X86)
  const UcddcpSums sums = SumUcddcp(n, proc, alpha);
  if (core::HostCpuFeatures().avx2 && UcddcpOnePassApplies(d, sums) &&
      Packable(n, d, proc, alpha, beta) && Packable2(n, proc, minproc, gamma)) {
    const std::uint64_t* packW = PackUcddcp64(n, proc, minproc, alpha, gamma);
    const std::uint32_t* packB = PackBeta32(n, beta);
    std::int32_t b = 0;
    for (; b + 4 <= batch; b += 4) {
      EvalUcddcpGroupAvx2(n, d, seqs, static_cast<std::int64_t>(b) * stride,
                          stride, packW, packB, sums.alpha, b, costs, pinned,
                          offsets);
    }
    for (; b < batch; ++b) {  // scalar tail
      const EvalResult r = EvalUcddcpOnePass(
          n, d, seqs + static_cast<std::size_t>(b) * stride, proc, minproc,
          alpha, beta, gamma, sums.alpha);
      costs[b] = r.cost;
      if (pinned != nullptr) pinned[b] = r.pinned;
      if (offsets != nullptr) offsets[b] = r.offset;
    }
    return;
  }
#elif defined(CDD_SIMD_NEON)
  PortableLanesUcddcpDriver(n, d, seqs, stride, batch, proc, minproc,
                            alpha, beta, gamma, costs, pinned, offsets);
  return;
#endif
  EvalUcddcpBatch(n, d, seqs, stride, batch, proc, minproc, alpha, beta,
                  gamma, costs, pinned, offsets);
}

void EvalCddBatchPortableLanes(std::int32_t n, Time d, const JobId* seqs,
                               std::int32_t stride, std::int32_t batch,
                               const Time* proc, const Cost* alpha,
                               const Cost* beta, Cost* costs,
                               std::int32_t* pinned,
                               Time* offsets) noexcept {
  PortableLanesCddDriver(n, d, seqs, stride, batch, proc, alpha, beta,
                         costs, pinned, offsets);
}

void EvalUcddcpBatchPortableLanes(std::int32_t n, Time d, const JobId* seqs,
                                  std::int32_t stride, std::int32_t batch,
                                  const Time* proc, const Time* minproc,
                                  const Cost* alpha, const Cost* beta,
                                  const Cost* gamma, Cost* costs,
                                  std::int32_t* pinned,
                                  Time* offsets) noexcept {
  PortableLanesUcddcpDriver(n, d, seqs, stride, batch, proc, minproc,
                            alpha, beta, gamma, costs, pinned, offsets);
}

void EvalCddBatchDispatch(std::int32_t n, Time d, const JobId* seqs,
                          std::int32_t stride, std::int32_t batch,
                          const Time* proc, const Cost* alpha,
                          const Cost* beta, Cost* costs,
                          std::int32_t* pinned, Time* offsets) noexcept {
  if (core::ActiveEvalBackend() == core::EvalBackend::kSimd) {
    EvalCddBatchSimd(n, d, seqs, stride, batch, proc, alpha, beta, costs,
                     pinned, offsets);
  } else {
    EvalCddBatch(n, d, seqs, stride, batch, proc, alpha, beta, costs,
                 pinned, offsets);
  }
}

void EvalUcddcpBatchDispatch(std::int32_t n, Time d, const JobId* seqs,
                             std::int32_t stride, std::int32_t batch,
                             const Time* proc, const Time* minproc,
                             const Cost* alpha, const Cost* beta,
                             const Cost* gamma, Cost* costs,
                             std::int32_t* pinned, Time* offsets) noexcept {
  if (core::ActiveEvalBackend() == core::EvalBackend::kSimd) {
    EvalUcddcpBatchSimd(n, d, seqs, stride, batch, proc, minproc, alpha,
                        beta, gamma, costs, pinned, offsets);
  } else {
    EvalUcddcpBatch(n, d, seqs, stride, batch, proc, minproc, alpha, beta,
                    gamma, costs, pinned, offsets);
  }
}

void EvalCddMachinesBatchDispatch(std::int32_t n, std::int32_t m, Time d,
                                  const JobId* seqs, std::int32_t stride,
                                  const std::int32_t* splits,
                                  std::int32_t batch, const Time* proc,
                                  const Cost* alpha, const Cost* beta,
                                  Cost* costs, std::int32_t* pinned,
                                  Time* offsets) noexcept {
  // Lane-per-candidate SIMD pairs position i of several rows; with per-row
  // splits the machine boundary of lane 0 may fall mid-slice of lane 1, so
  // the lanes would straddle machines.  Multi-machine batches therefore
  // take the scalar batch under every CDD_EVAL_BACKEND value — results are
  // bit-identical across backends by construction (pinned by test).
  // Single-machine batches keep the full SIMD dispatch.
  if (m <= 1) {
    EvalCddBatchDispatch(n, d, seqs, stride, batch, proc, alpha, beta,
                         costs, pinned, offsets);
    return;
  }
  EvalCddMachinesBatch(n, m, d, seqs, stride, splits, batch, proc, alpha,
                       beta, costs, pinned, offsets);
}

void EvalEarlyWorkBatchDispatch(std::int32_t n, std::int32_t m, Time d,
                                const JobId* seqs, std::int32_t stride,
                                const std::int32_t* splits,
                                std::int32_t batch, const Time* proc,
                                Cost* costs, std::int32_t* pinned,
                                Time* offsets) noexcept {
  // Late work is a per-machine load sum — memory-bound, no breakpoint
  // walk to vectorize — so the scalar batch is the only build; the
  // dispatch entry point exists for call-site symmetry and so the
  // CDD_EVAL_BACKEND cross-replay in CI covers this objective too.
  EvalEarlyWorkBatch(n, m, d, seqs, stride, splits, batch, proc, costs,
                     pinned, offsets);
}

}  // namespace cdd::raw
