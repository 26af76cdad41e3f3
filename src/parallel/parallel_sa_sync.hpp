#pragma once
/// \file parallel_sa_sync.hpp
/// \brief Synchronous GPU-parallel Simulated Annealing (Section V-B,
/// Figure 8) — implemented for the async-vs-sync ablation.
///
/// Every thread simulates a Markov chain of fixed length M at a constant
/// temperature; after each temperature level the ensemble's best current
/// state is reduced and broadcast to every thread as the next level's
/// starting state.  The paper rejects this variant because of premature
/// convergence; RunParallelSaSync exposes a per-level diversity metric so
/// bench_ablation_sync_vs_async can show exactly that collapse.

#include <cstdint>
#include <memory>

#include "core/instance.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"
#include "meta/sa.hpp"  // NeighborhoodMode
#include "parallel/launch_config.hpp"
#include "parallel/result.hpp"

namespace cdd::par {

/// Parameters of the synchronous parallel SA.
struct ParallelSaSyncParams {
  LaunchConfig config{};
  /// Temperature levels (the outer iterations t of Fig 8), seed, trajectory
  /// stride (sampling the best broadcast state) and StopToken (polled
  /// between levels).
  meta::SearchBudget budget{.iterations = 100};
  std::uint32_t chain_length = 10;  ///< Markov chain length M
  double mu = 0.88;
  std::uint32_t pert = 4;
  meta::NeighborhoodMode neighborhood =
      meta::NeighborhoodMode::kSwapWithPeriodicShuffle;
  std::uint32_t shuffle_period = 10;
  double initial_temperature = 0.0;  ///< <= 0: Salamon rule
  std::uint64_t temp_samples = 5000;
  /// Record the ensemble's mean Hamming distance to the broadcast state at
  /// every temperature level into GpuRunResult::diversity.
  bool record_diversity = false;
};

/// Runs the synchronous parallel SA.
GpuRunResult RunParallelSaSync(sim::Device& device, const Instance& instance,
                               const ParallelSaSyncParams& params);

/// Creates a resumable synchronous parallel-SA engine on \p device (not
/// owned).  Step units are temperature levels (each a full M-length chain
/// plus the reduce/broadcast exchange — the natural pause point of Fig 8).
std::unique_ptr<meta::Engine> MakeParallelSaSyncEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaSyncParams& params);

}  // namespace cdd::par
