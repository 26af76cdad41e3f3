#pragma once
/// \file eval_simd.hpp
/// \brief Lane-per-candidate SIMD builds of the batched sequence evaluators.
///
/// EvalCddBatch / EvalUcddcpBatch walk one candidate row at a time; this
/// header provides the transposed variants: position i of 4 (AVX2) or 2
/// (NEON / portable) candidate rows is processed per step, with one lane
/// per candidate.  The per-row state of EvalCddFused — completion time `c`,
/// the penalty masses `pe` / `pl`, the running cost and the tau/prefix_tau
/// bookkeeping — becomes a per-lane accumulator, the `c <= d` branch
/// becomes a lane mask, and the crossing loop of Theorem 1 retires lanes
/// individually: a lane drops out of the walk the moment its scalar
/// counterpart would have broken (masked retirement in the portable
/// kernels, a short scalar per-lane walk in the AVX2 CDD build).  The
/// UCDDCP kernels run EvalUcddcpOnePass per lane: a masked backward walk
/// whose lanes retire at their own due-date position r, then a forward
/// walk up to the largest r.  Rows beyond the last full lane group go
/// through the scalar row evaluator (the "scalar tail").
///
/// Bit-identity: every quantity is an exact 64-bit integer and the lane
/// math performs the same additions, subtractions, comparisons and
/// products as EvalCddFused / EvalUcddcpOnePass per lane, so the SIMD
/// results equal the scalar results bit for bit on every input (the
/// eval_batch, eval_simd and eval_raw tests pin SIMD == scalar == fused
/// == two-pass reference == LP-oracle).
///
/// Backend layers:
///  * x86-64: AVX2 kernels (4x64-bit lanes, phase-split CDD scan, one-pass
///    UCDDCP walk, scalar-load row assembly), compiled with a
///    function-level target attribute and guarded by the cpuid probe of
///    core/cpu_features.hpp — the binary runs on any x86-64 host.
///    Instances whose fields do not fit 16 bits, whose field sums (or d)
///    do not fit 31 bits, or (UCDDCP) with some M_i > P_i fall back to the
///    scalar batch; results are identical either way.
///  * aarch64: the portable lane-transposed kernels below, selected at
///    compile time (Advanced SIMD is baseline) and auto-vectorized.
///  * anything else: the scalar batch evaluators.
///
/// Call sites use the *Dispatch entry points, which resolve the backend
/// exactly once per process via core::ActiveEvalBackend() (environment
/// override CDD_EVAL_BACKEND=simd|scalar, then the CPU probe).
///
/// Preconditions (shared with the scalar evaluators of eval_raw.hpp, and
/// unchecked here — violating them yields meaningless costs, not UB
/// diagnostics):
///  * every row seqs[b*stride .. b*stride+n) is a permutation of [0, n);
///  * stride >= n (rows may be padded, e.g. CandidatePool's 64-byte
///    stride);
///  * the UCDDCP evaluators implement the *unrestricted* O(n) algorithm
///    and require d >= sum(P_i); restricted instances must be rejected at
///    the boundary (serve::ValidateRequestInstance does) before any batch
///    call;
///  * `pinned` / `offsets` may be null when the caller does not want
///    those outputs; when non-null they hold `batch` entries.
///
/// Thread-safety: all entry points are pure functions of their arguments
/// with no shared mutable state — concurrent calls are safe as long as
/// their output ranges (costs/pinned/offsets) do not overlap.  The
/// dispatch resolution itself is a thread-safe one-time initialization.

#include <cstdint>

#include "core/types.hpp"

namespace cdd::raw {

/// True when this binary carries a SIMD build of the batch evaluators
/// (x86-64 AVX2 or the aarch64 portable-lane kernels).
bool SimdBatchCompiledIn() noexcept;

/// True when the SIMD build is compiled in *and* the executing host can
/// run it (cpuid AVX2 on x86-64; always on aarch64 when compiled in).
bool SimdBatchAvailable() noexcept;

/// Name of the SIMD instruction set in use: "avx2", "neon" or "none".
const char* SimdBatchIsa() noexcept;

/// SIMD build of raw::EvalCddBatch (identical signature and results).
/// Falls back to the scalar batch when SimdBatchAvailable() is false.
void EvalCddBatchSimd(std::int32_t n, Time d, const JobId* seqs,
                      std::int32_t stride, std::int32_t batch,
                      const Time* proc, const Cost* alpha, const Cost* beta,
                      Cost* costs, std::int32_t* pinned = nullptr,
                      Time* offsets = nullptr) noexcept;

/// SIMD build of raw::EvalUcddcpBatch (identical signature and results).
void EvalUcddcpBatchSimd(std::int32_t n, Time d, const JobId* seqs,
                         std::int32_t stride, std::int32_t batch,
                         const Time* proc, const Time* minproc,
                         const Cost* alpha, const Cost* beta,
                         const Cost* gamma, Cost* costs,
                         std::int32_t* pinned = nullptr,
                         Time* offsets = nullptr) noexcept;

/// The portable lane-transposed kernels behind the aarch64 (NEON) build,
/// compiled on every platform so the transposition itself is unit-tested
/// everywhere, not only on ARM hosts.
void EvalCddBatchPortableLanes(std::int32_t n, Time d, const JobId* seqs,
                               std::int32_t stride, std::int32_t batch,
                               const Time* proc, const Cost* alpha,
                               const Cost* beta, Cost* costs,
                               std::int32_t* pinned = nullptr,
                               Time* offsets = nullptr) noexcept;

void EvalUcddcpBatchPortableLanes(std::int32_t n, Time d, const JobId* seqs,
                                  std::int32_t stride, std::int32_t batch,
                                  const Time* proc, const Time* minproc,
                                  const Cost* alpha, const Cost* beta,
                                  const Cost* gamma, Cost* costs,
                                  std::int32_t* pinned = nullptr,
                                  Time* offsets = nullptr) noexcept;

/// Generation hot-path entry points: run the backend selected once per
/// process by core::ActiveEvalBackend().  Every engine-facing batch call
/// (meta::SequenceObjective, the instance evaluators, the simulator
/// fitness kernel) routes through these.
void EvalCddBatchDispatch(std::int32_t n, Time d, const JobId* seqs,
                          std::int32_t stride, std::int32_t batch,
                          const Time* proc, const Cost* alpha,
                          const Cost* beta, Cost* costs,
                          std::int32_t* pinned = nullptr,
                          Time* offsets = nullptr) noexcept;

void EvalUcddcpBatchDispatch(std::int32_t n, Time d, const JobId* seqs,
                             std::int32_t stride, std::int32_t batch,
                             const Time* proc, const Time* minproc,
                             const Cost* alpha, const Cost* beta,
                             const Cost* gamma, Cost* costs,
                             std::int32_t* pinned = nullptr,
                             Time* offsets = nullptr) noexcept;

/// Dispatch entry point of raw::EvalCddMachinesBatch.  Multi-machine rows
/// (m > 1) always take the scalar batch: lane-per-candidate SIMD would
/// straddle machine boundaries that differ per row, so the SIMD backend
/// deliberately falls back — results are bit-identical under every
/// CDD_EVAL_BACKEND value.  m == 1 routes to the full single-machine
/// dispatch (SIMD when available).
void EvalCddMachinesBatchDispatch(std::int32_t n, std::int32_t m, Time d,
                                  const JobId* seqs, std::int32_t stride,
                                  const std::int32_t* splits,
                                  std::int32_t batch, const Time* proc,
                                  const Cost* alpha, const Cost* beta,
                                  Cost* costs,
                                  std::int32_t* pinned = nullptr,
                                  Time* offsets = nullptr) noexcept;

/// Dispatch entry point of raw::EvalEarlyWorkBatch (scalar on every
/// backend; see the .cpp note).
void EvalEarlyWorkBatchDispatch(std::int32_t n, std::int32_t m, Time d,
                                const JobId* seqs, std::int32_t stride,
                                const std::int32_t* splits,
                                std::int32_t batch, const Time* proc,
                                Cost* costs, std::int32_t* pinned = nullptr,
                                Time* offsets = nullptr) noexcept;

}  // namespace cdd::raw
