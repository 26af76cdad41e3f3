#include "core/cpu_features.hpp"

#include <string_view>

#include "core/env_config.hpp"
#include "core/eval_simd.hpp"

namespace cdd::core {

namespace {

CpuFeatures Detect() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#elif defined(__aarch64__)
  // Advanced SIMD is part of the AArch64 baseline; no runtime probe needed.
  features.neon = true;
#endif
  return features;
}

EvalBackend Resolve() {
  const EvalBackend wanted =
      ReadEnv(kEvalBackendEnv, ParseEvalBackend).value_or(EvalBackend::kSimd);
  // Forcing SIMD on a host that cannot execute it would be a crash, not a
  // preference; degrade to scalar (results are identical).
  return raw::SimdBatchAvailable() ? wanted : EvalBackend::kScalar;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string_view ToString(EvalBackend backend) {
  return backend == EvalBackend::kSimd ? "simd" : "scalar";
}

bool ParseEvalBackend(std::string_view name, EvalBackend* out) {
  if (name == "scalar") {
    *out = EvalBackend::kScalar;
    return true;
  }
  if (name == "simd") {
    *out = EvalBackend::kSimd;
    return true;
  }
  return false;
}

EvalBackend ActiveEvalBackend() {
  static const EvalBackend backend = Resolve();
  return backend;
}

}  // namespace cdd::core
