#pragma once
/// \file dpso.hpp
/// \brief Serial Discrete Particle Swarm Optimization — Algorithm 2,
/// following Pan et al. [15].
///
/// Position update (Eq. 3 of the paper):
///   p_i(t+1) = c2 (+) F3( c1 (+) F2( w (+) F1(p_i(t)), p_i^b(t) ), g(t) )
/// where x' = c (+) f(x) applies f with probability c, F1 is a random swap,
/// F2 a one-point crossover with the particle best and F3 a two-point
/// crossover with the swarm best.

#include <cstdint>
#include <memory>

#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/result.hpp"

namespace cdd::meta {

/// Parameters of a serial DPSO run.
struct DpsoParams {
  /// Generations, seed, trajectory stride and StopToken (polled every
  /// generation: one generation evaluates the whole swarm).
  SearchBudget budget{};
  std::uint32_t swarm = 64;         ///< particle count
  double w = 0.8;   ///< probability of the swap "velocity" operator F1
  double c1 = 0.8;  ///< probability of the cognition crossover F2
  double c2 = 0.8;  ///< probability of the social crossover F3
  /// Optional lent candidate pool (the serve layer's zero-copy handoff).
  /// Borrowed only when it matches the objective's n with `swarm` rows of
  /// capacity; otherwise the engine allocates privately.  Contents are
  /// Clear()ed and overwritten; results are bit-identical either way.
  CandidatePool* pool = nullptr;
};

/// Runs the serial DPSO and returns the swarm's best particle.
RunResult RunSerialDpso(const SequenceObjective& objective,
                        const DpsoParams& params);

/// Creates a resumable DPSO engine (see engine.hpp).  Construction runs
/// the swarm initialization (one evaluation per particle); Step units are
/// generations.
std::unique_ptr<Engine> MakeDpsoEngine(const SequenceObjective& objective,
                                       const DpsoParams& params);

}  // namespace cdd::meta
