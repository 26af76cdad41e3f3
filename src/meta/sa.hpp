#pragma once
/// \file sa.hpp
/// \brief Serial Simulated Annealing — Algorithm 1 of the paper.
///
/// This is the CPU baseline corresponding to Lässig et al. [7]: one Markov
/// chain, metropolis acceptance, exponential cooling T <- T * mu, neighbours
/// generated by a partial Fisher–Yates shuffle of `pert` random positions.
/// The GPU-parallel asynchronous SA (src/parallel) runs exactly this chain
/// in every simulated CUDA thread.

#include <cstdint>
#include <memory>
#include <optional>

#include "meta/cooling.hpp"
#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/result.hpp"

namespace cdd::meta {

/// Neighbourhood policy of the SA chain.  Section VI of the paper reads:
/// "After every 10 SA iterations, Pert number of jobs are selected at
/// random from the current sequence and shuffled using the Fisher Yates
/// algorithm" — i.e. a cheap move (swap) most iterations with a stronger
/// Pert-sized shuffle every `shuffle_period`-th (the default here, and the
/// better performer in the E12 ablation).  kShuffleEveryIteration applies
/// the Pert-sized shuffle on every iteration instead (the reading
/// suggested by the perturbation-kernel description in Section VI-B).
enum class NeighborhoodMode {
  kSwapWithPeriodicShuffle,
  kShuffleEveryIteration,
};

/// Parameters of one SA chain (defaults are the paper's settings).
struct SaParams {
  /// #Iterations of Algorithm 1, seed, trajectory stride and StopToken
  /// (polled every kStopCheckStride iterations).
  SearchBudget budget{};
  double mu = 0.88;                 ///< exponential cooling rate
  std::uint32_t pert = 4;           ///< perturbation size (Section VI-B)
  NeighborhoodMode neighborhood =
      NeighborhoodMode::kSwapWithPeriodicShuffle;
  std::uint32_t shuffle_period = 10;  ///< "after every 10 SA iterations"
  /// Initial temperature; <= 0 selects the Salamon rule (standard deviation
  /// of `temp_samples` random sequences' fitness).
  double initial_temperature = 0.0;
  std::uint64_t temp_samples = 5000;
  /// Cooling schedule family (the paper's is exponential).
  CoolingKind cooling = CoolingKind::kExponential;
};

/// Runs one serial SA chain.  \p initial seeds the chain (random when
/// absent).  Equivalent to driving MakeSaEngine to completion in one Step.
RunResult RunSerialSa(const SequenceObjective& objective,
                      const SaParams& params,
                      const std::optional<Sequence>& initial = std::nullopt);

/// Creates a resumable SA engine (see engine.hpp).  Construction performs
/// the Init phase: seeding, the initial evaluation and the Salamon
/// temperature estimate.  Step units are SA iterations.
std::unique_ptr<Engine> MakeSaEngine(
    const SequenceObjective& objective, const SaParams& params,
    const std::optional<Sequence>& initial = std::nullopt);

}  // namespace cdd::meta
