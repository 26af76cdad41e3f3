#pragma once
/// \file kernels_raw.hpp
/// \brief Allocation-free "device function" helpers shared by the parallel
/// kernels: per-thread perturbation and Metropolis acceptance of the SA
/// chains, row copies and crossovers on raw arrays, and the packed keys of
/// the atomic-min reduction.
///
/// The charges are the paper's kernels.  Where the simulator can do less
/// host work than the modeled kernel (the SA chains copy O(pert) positions
/// per generation, not whole rows), it says so beside the charge.

#include <cmath>
#include <cstdint>

#include "core/sequence.hpp"
#include "core/types.hpp"
#include "cudasim/device.hpp"
#include "meta/ops.hpp"
#include "rng/philox.hpp"

namespace cdd::par::raw {

/// Number of reserved RNG phases per generation (perturbation, acceptance,
/// dpso-update).  Stream ids are ((generation * kRngPhases + phase) << 32)
/// | thread, so every (generation, phase, thread) triple owns a private
/// Philox stream: consumption never overlaps and a thread's stream sequence
/// is independent of the ensemble size (the inclusion property tested in
/// tests/parallel).
inline constexpr std::uint64_t kRngPhases = 4;

enum class RngPhase : std::uint64_t {
  kInit = 0,
  kPerturb = 1,
  kAccept = 2,
  kDpsoUpdate = 3,
};

/// Philox stream for (seed, generation, phase, thread).
inline rng::Philox4x32 MakeStream(std::uint64_t seed,
                                  std::uint64_t generation, RngPhase phase,
                                  std::uint32_t thread) {
  const std::uint64_t stream =
      ((generation * kRngPhases + static_cast<std::uint64_t>(phase)) << 32) |
      thread;
  return rng::Philox4x32(seed, stream);
}

/// Partial Fisher–Yates on a raw sequence; \p positions and \p values are
/// per-thread scratch of at least \p pert elements (the kernels use small
/// stack arrays).  Returns how many positions it chose (0 when n < 2 or
/// pert < 2, else min(pert, n)); \p positions holds them, and no other
/// position of \p seq changes.
inline std::uint32_t PerturbRaw(JobId* seq, std::int32_t n,
                                std::uint32_t pert, rng::Philox4x32& rng,
                                std::uint32_t* positions, JobId* values) {
  if (n < 2 || pert < 2) return 0;
  if (pert > static_cast<std::uint32_t>(n)) {
    pert = static_cast<std::uint32_t>(n);
  }
  std::uint32_t chosen = 0;
  while (chosen < pert) {
    const std::uint32_t p =
        cdd::UniformBelow(rng, static_cast<std::uint32_t>(n));
    bool duplicate = false;
    for (std::uint32_t k = 0; k < chosen; ++k) {
      if (positions[k] == p) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) positions[chosen++] = p;
  }
  for (std::uint32_t k = 0; k < pert; ++k) values[k] = seq[positions[k]];
  for (std::uint32_t i = pert; i > 1; --i) {
    const std::uint32_t j = cdd::UniformBelow(rng, i);
    const JobId tmp = values[i - 1];
    values[i - 1] = values[j];
    values[j] = tmp;
  }
  for (std::uint32_t k = 0; k < pert; ++k) seq[positions[k]] = values[k];
  return pert;
}

/// In-place crossovers (DPSO's F3 and F2) on raw rows: meta's
/// TwoPointCrossover and OnePointCrossover, with \p used n bytes of
/// per-thread scratch.
inline void TwoPointCrossoverRaw(std::int32_t n, JobId* row,
                                 const JobId* donor, std::uint32_t a,
                                 std::uint32_t b, std::uint8_t* used) {
  const auto size = static_cast<std::size_t>(n);
  meta::TwoPointCrossover({row, size}, {donor, size}, a, b, {used, size});
}

inline void OnePointCrossoverRaw(std::int32_t n, JobId* row,
                                 const JobId* donor, std::uint32_t cut,
                                 std::uint8_t* used) {
  TwoPointCrossoverRaw(n, row, donor, 0, cut, used);
}

/// Random swap of two distinct positions (DPSO's F1 operator).  Writes
/// the two positions to \p positions and returns 2 (0 when n < 2).
inline std::uint32_t SwapRaw(JobId* seq, std::int32_t n,
                             rng::Philox4x32& rng, std::uint32_t* positions) {
  if (n < 2) return 0;
  const std::uint32_t i =
      cdd::UniformBelow(rng, static_cast<std::uint32_t>(n));
  std::uint32_t j =
      cdd::UniformBelow(rng, static_cast<std::uint32_t>(n - 1));
  if (j >= i) ++j;
  const JobId tmp = seq[i];
  seq[i] = seq[j];
  seq[j] = tmp;
  positions[0] = i;
  positions[1] = j;
  return 2;
}

/// A kernel's per-thread row copy.  n arrives by value: a loop bound read
/// from a kernel lambda's closure is reloaded after every store, since a
/// JobId store may alias it.
inline void CopyRow(JobId* dst, const JobId* src, std::int32_t n) {
  for (std::int32_t k = 0; k < n; ++k) dst[k] = src[k];
}

/// Largest perturbation size the SA kernels' per-thread scratch holds.
inline constexpr std::uint32_t kMaxPert = 32;

/// Per-thread stride of ChainRows::touched: a count, then up to kMaxPert
/// positions.
inline constexpr std::uint32_t kTouchedStride = kMaxPert + 1;

/// The device rows of an SA ensemble: thread t owns row t (stride n) of
/// curr and cand, entry t of curr_cost and cand_cost, and entries
/// [t * kTouchedStride, (t + 1) * kTouchedStride) of touched.
///
/// Invariant: cand == curr at every generation boundary.  The engines
/// establish it wherever they rewrite whole rows (construction and
/// psa-sync's broadcast); PerturbCandidate and CommitMove keep it.  Then
/// a candidate differs from its current row only at the positions the
/// perturbation touched, and the simulator copies just those.  The
/// modeled kernels still copy whole rows: every charge below is the
/// paper's n-element copy, whatever the host writes.
struct ChainRows {
  JobId* curr;
  JobId* cand;
  Cost* curr_cost;
  const Cost* cand_cost;
  std::uint32_t* touched;
  std::int32_t n;
};

/// Perturbation kernel body of psa and psa-sync (Section VI-B) for thread
/// \p tid of generation \p generation.  The modeled kernel copies the
/// current row into the candidate row, then applies the Pert-sized
/// shuffle when \p shuffle_now and one random swap otherwise.  Here cand
/// already equals curr, so the move edits cand in place and records the
/// positions it touched.  \p pert is at most kMaxPert.
inline void PerturbCandidate(sim::ThreadCtx& t, const ChainRows& rows,
                             std::uint64_t tid, std::uint64_t seed,
                             std::uint64_t generation, std::uint32_t pert,
                             bool shuffle_now) {
  const std::int32_t n = rows.n;
  JobId* cand = rows.cand + tid * n;
  std::uint32_t* touched = rows.touched + tid * kTouchedStride;
  rng::Philox4x32 rng = MakeStream(seed, generation, RngPhase::kPerturb,
                                   static_cast<std::uint32_t>(tid));
  if (shuffle_now) {
    JobId values[kMaxPert];
    touched[0] = PerturbRaw(cand, n, pert, rng, touched + 1, values);
    t.charge(static_cast<std::uint64_t>(n) + 8 * pert);
  } else {
    touched[0] = SwapRaw(cand, n, rng, touched + 1);
    t.charge(static_cast<std::uint64_t>(n) + 2);
  }
}

/// Metropolis decision of the acceptance kernel (Section VI-C) for thread
/// \p tid: accept the move from e = curr_cost to e_new = cand_cost when
/// exp((e - e_new) / T) >= u at \p temperature > 0, u drawn from the
/// thread's stream.  A move with e_new <= e has exp(...) >= 1 >= u
/// (NextUniform() lies in (0, 1]), so it is accepted without the exp or
/// the draw; streams are stateless per (seed, generation, phase, thread),
/// so the skipped draw changes nothing downstream.  Writes nothing:
/// CommitMove applies the decision.
inline bool MetropolisAccept(sim::ThreadCtx& t, const ChainRows& rows,
                             std::uint64_t tid, std::uint64_t seed,
                             std::uint64_t generation, double temperature) {
  t.charge(4);
  const Cost e = rows.curr_cost[tid];
  const Cost e_new = rows.cand_cost[tid];
  if (e_new <= e) return true;
  rng::Philox4x32 rng = MakeStream(seed, generation, RngPhase::kAccept,
                                   static_cast<std::uint32_t>(tid));
  return std::exp(static_cast<double>(e - e_new) / temperature) >=
         static_cast<double>(rng.NextUniform());
}

/// Applies thread \p tid's decision.  The modeled kernel copies the
/// candidate over the current row and cost when accepted (charged n).
/// Here only the touched positions move: cand -> curr on accept and
/// curr -> cand on reject, which restores cand == curr either way.
inline void CommitMove(sim::ThreadCtx& t, const ChainRows& rows,
                       std::uint64_t tid, bool accepted) {
  const std::int32_t n = rows.n;
  JobId* cur = rows.curr + tid * n;
  JobId* cnd = rows.cand + tid * n;
  const std::uint32_t* touched = rows.touched + tid * kTouchedStride;
  const std::uint32_t count = touched[0];
  if (accepted) {
    for (std::uint32_t k = 1; k <= count; ++k) {
      cur[touched[k]] = cnd[touched[k]];
    }
    rows.curr_cost[tid] = rows.cand_cost[tid];
    t.charge(static_cast<std::uint64_t>(n));
  } else {
    for (std::uint32_t k = 1; k <= count; ++k) {
      cnd[touched[k]] = cur[touched[k]];
    }
  }
}

// --- packed (cost, thread) reduction keys --------------------------------
// The reduction kernel performs one atomicMin per thread on a 64-bit key
// (cost in the high bits, thread id in the low 20), mirroring the paper's
// single atomic minimization in L2 (Section VI-D).  The cost must fit in
// 43 bits; DeviceProblem::cost_upper_bound() is checked against this at
// solver construction.

inline constexpr int kThreadBits = 20;
inline constexpr std::uint64_t kThreadMask = (1ull << kThreadBits) - 1;
inline constexpr Cost kMaxPackableCost = Cost{1} << 42;

inline std::int64_t PackCostThread(Cost cost, std::uint32_t thread) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(cost) << kThreadBits) |
      (thread & kThreadMask));
}
inline Cost UnpackCost(std::int64_t packed) {
  return static_cast<Cost>(static_cast<std::uint64_t>(packed) >>
                           kThreadBits);
}
inline std::uint32_t UnpackThread(std::int64_t packed) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(packed) &
                                    kThreadMask);
}

}  // namespace cdd::par::raw
