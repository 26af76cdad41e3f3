#pragma once
/// \file threshold.hpp
/// \brief Threshold Accepting — one of the Feldmann & Biskup [18] CPU
/// baselines the paper compares its speed-ups against.
///
/// TA is SA with a deterministic acceptance rule: a candidate is accepted
/// iff E_new - E <= threshold, with the threshold shrinking geometrically.
/// It needs no random acceptance draw, which made it popular for
/// due-date scheduling (Feldmann & Biskup report it among their best
/// heuristics).

#include <cstdint>
#include <memory>
#include <optional>

#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/result.hpp"

namespace cdd::meta {

/// Parameters of a Threshold Accepting run.
struct TaParams {
  /// Iterations, seed, trajectory stride and StopToken (polled every
  /// kStopCheckStride iterations).
  SearchBudget budget{};
  /// Initial acceptance threshold; <= 0 derives it from the fitness spread
  /// of `temp_samples` random sequences (half a standard deviation).
  double initial_threshold = 0.0;
  double decay = 0.88;  ///< geometric threshold decay per iteration
  std::uint32_t pert = 4;
  std::uint64_t temp_samples = 2000;
};

/// Runs serial Threshold Accepting.
RunResult RunThresholdAccepting(
    const SequenceObjective& objective, const TaParams& params,
    const std::optional<Sequence>& initial = std::nullopt);

/// Creates a resumable TA engine (see engine.hpp).  Step units are TA
/// iterations.
std::unique_ptr<Engine> MakeTaEngine(
    const SequenceObjective& objective, const TaParams& params,
    const std::optional<Sequence>& initial = std::nullopt);

}  // namespace cdd::meta
