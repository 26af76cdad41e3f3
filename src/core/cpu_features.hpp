#pragma once
/// \file cpu_features.hpp
/// \brief One-time CPU-feature detection and evaluation-backend selection.
///
/// The batched evaluators of eval_raw.hpp exist in two builds: the portable
/// scalar walk and the lane-per-candidate SIMD transposition of
/// eval_simd.hpp (AVX2 on x86-64, selected at runtime via cpuid; NEON on
/// aarch64, selected at compile time because it is baseline there).  Both
/// produce bit-identical results — all quantities are exact integers — so
/// the choice is purely a throughput decision and is made exactly once per
/// process:
///
///   1. the CDD_EVAL_BACKEND environment variable ("simd" | "scalar")
///      forces a backend, with "simd" silently degrading to scalar when the
///      host cannot execute it (CI uses this to pin both paths); any other
///      value throws std::invalid_argument (core/env_config.hpp), then
///   2. the SIMD backend is picked whenever the binary carries it and the
///      host CPU supports it, else
///   3. the scalar batch walk.
///
/// Engines never consult this header directly: meta::SequenceObjective,
/// the instance evaluators and par::detail::LaunchFitness all call the
/// raw::EvalCddBatchDispatch / EvalUcddcpBatchDispatch entry points of
/// eval_simd.hpp, which resolve through ActiveEvalBackend().
///
/// Thread-safety: HostCpuFeatures() and ActiveEvalBackend() are
/// resolve-once function-local statics — safe to call concurrently from
/// any thread, and guaranteed to return the same answer for the process
/// lifetime (so two threads can never disagree about the backend).  The
/// same idiom selects the candidate-pool placement backend; see
/// core::ActivePoolBackend() in core/pool_allocator.hpp.

#include <string_view>

namespace cdd::core {

/// Instruction-set capabilities of the executing host, detected once.
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 AVX2 (256-bit integer SIMD + gathers)
  bool neon = false;  ///< aarch64 Advanced SIMD (baseline on AArch64)
};

/// Cached cpuid/compile-time probe; never throws.
const CpuFeatures& HostCpuFeatures();

/// Which implementation the batched evaluators run through.
enum class EvalBackend { kScalar, kSimd };

/// Stable lower-case name ("scalar" | "simd"), for logs and benches.
std::string_view ToString(EvalBackend backend);

/// Parses a backend name; returns false (and leaves \p out untouched) on
/// anything else.
bool ParseEvalBackend(std::string_view name, EvalBackend* out);

/// The backend every dispatching call site uses, resolved once per process
/// (environment override first, then the CPU probe — see the file comment).
/// Throws std::invalid_argument when CDD_EVAL_BACKEND is malformed.
EvalBackend ActiveEvalBackend();

}  // namespace cdd::core
