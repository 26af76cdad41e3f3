#pragma once
/// \file parallel_dpso.hpp
/// \brief Asynchronous GPU-parallel Discrete PSO (Sections VI-E, VII).
///
/// The swarm lives in device global memory, one particle per simulated CUDA
/// thread.  Each generation launches: the position-update kernel (Pan et
/// al.'s F1/F2/F3 composition with per-thread Philox streams), the fitness
/// kernel shared with SA, a particle-best update kernel, the atomic-min
/// reduction, and a swarm-best publish kernel — then synchronizes, mirroring
/// the SA pipeline as the paper describes ("the parallelization approach
/// remains the same as for SA").

#include <cstdint>
#include <memory>

#include "core/instance.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"
#include "parallel/launch_config.hpp"
#include "parallel/result.hpp"

namespace cdd::par {

/// Parameters of the parallel DPSO (defaults mirror the paper's setup:
/// same geometry and generation counts as SA).
struct ParallelDpsoParams {
  LaunchConfig config{};
  /// Generations, seed, trajectory stride and StopToken (polled between
  /// generations).
  meta::SearchBudget budget{};
  double w = 0.8;   ///< probability of the swap operator F1
  double c1 = 0.8;  ///< probability of the one-point crossover F2
  double c2 = 0.8;  ///< probability of the two-point crossover F3
  /// Seed the ensemble from the V-shape constructive heuristic instead of
  /// uniform random permutations (thread 0 exact, others diversified).
  bool vshape_init = false;
};

/// Runs the asynchronous parallel DPSO for \p instance on \p device.
GpuRunResult RunParallelDpso(sim::Device& device, const Instance& instance,
                             const ParallelDpsoParams& params);

/// Creates a resumable parallel-DPSO engine on \p device (not owned).
/// Step units are generations.
std::unique_ptr<meta::Engine> MakeParallelDpsoEngine(
    sim::Device& device, const Instance& instance,
    const ParallelDpsoParams& params);

}  // namespace cdd::par
