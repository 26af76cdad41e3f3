#pragma once
/// \file evostrategy.hpp
/// \brief (mu + lambda) Evolution Strategy — the second Feldmann & Biskup
/// [18]-style CPU baseline.
///
/// mu parents produce lambda offspring per generation by partial
/// Fisher–Yates mutation; the best mu of parents + offspring survive
/// (elitist plus-selection).

#include <cstdint>
#include <memory>

#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/result.hpp"

namespace cdd::meta {

/// Parameters of a (mu + lambda)-ES run.
struct EsParams {
  /// Generations, seed, trajectory stride and StopToken (polled every
  /// generation).
  SearchBudget budget{.iterations = 200};
  std::uint32_t mu = 10;      ///< parents kept per generation
  std::uint32_t lambda = 40;  ///< offspring per generation
  std::uint32_t pert = 4;     ///< mutation strength (shuffled positions)
  /// Optional lent candidate pool (see DpsoParams::pool); needs
  /// max(mu, lambda) rows.
  CandidatePool* pool = nullptr;
};

/// Runs the serial evolution strategy.
RunResult RunEvolutionStrategy(const SequenceObjective& objective,
                               const EsParams& params);

/// Creates a resumable (mu + lambda)-ES engine (see engine.hpp).  Step
/// units are generations.
std::unique_ptr<Engine> MakeEsEngine(const SequenceObjective& objective,
                                     const EsParams& params);

}  // namespace cdd::meta
