#pragma once
/// \file parallel_sa.hpp
/// \brief Asynchronous GPU-parallel Simulated Annealing — the paper's main
/// algorithm (Sections V-A, VI, Figures 7, 9, 10).
///
/// Every simulated CUDA thread runs an independent SA chain (Algorithm 1).
/// One generation launches four kernels in order:
///   1. perturbation — candidate = partial Fisher–Yates of the current
///      sequence (per-thread Philox stream),
///   2. fitness      — evaluates the candidate with the O(n) algorithm of
///      Section IV, charged as reading alpha/beta from block shared
///      memory (the paper stages them there behind a block barrier),
///   3. acceptance   — metropolis rule at the generation's temperature,
///      tracking each thread's personal best,
///   4. reduction    — atomicMin over packed (cost, thread) keys,
/// followed by a device synchronize.  Instance data is uploaded once before
/// the loop and only the winning sequence is downloaded at the end (Fig 9).

#include <cstdint>
#include <memory>

#include "core/instance.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"
#include "meta/sa.hpp"  // NeighborhoodMode
#include "parallel/detail.hpp"  // PenaltyMemory
#include "parallel/launch_config.hpp"
#include "parallel/result.hpp"

namespace cdd::par {

/// Parameters of the asynchronous parallel SA (defaults = the paper's).
struct ParallelSaParams {
  LaunchConfig config{};            ///< 4 blocks x 192 threads
  /// Generations (SA_1000 / SA_5000 of Section VIII), seed, trajectory
  /// stride and StopToken (polled between generations: each is a full
  /// 4-kernel ensemble launch, so the poll is negligible).
  meta::SearchBudget budget{};
  double mu = 0.88;                 ///< exponential cooling rate
  std::uint32_t pert = 4;           ///< perturbation size
  meta::NeighborhoodMode neighborhood =
      meta::NeighborhoodMode::kSwapWithPeriodicShuffle;
  std::uint32_t shuffle_period = 10;  ///< Section VI-B's "every 10"
  /// Initial temperature; <= 0 applies the Salamon rule (stddev of
  /// `temp_samples` random sequences) on the host before upload.
  double initial_temperature = 0.0;
  std::uint64_t temp_samples = 5000;
  /// Seed the ensemble from the V-shape constructive heuristic instead of
  /// uniform random permutations (thread 0 exact, others diversified).
  bool vshape_init = false;
  /// Memory path of the fitness kernel's penalty reads (Section VI-A
  /// default: shared; Section IX future work: texture).
  detail::PenaltyMemory penalty_memory = detail::PenaltyMemory::kShared;
  /// Reduction implementation (Section VI-D default: atomicMin).
  detail::ReductionKind reduction = detail::ReductionKind::kAtomic;
};

/// Runs the asynchronous parallel SA for \p instance on \p device.
/// Works for both problems: the fitness kernel dispatches to the CDD or
/// UCDDCP O(n) evaluator according to Instance::problem().
GpuRunResult RunParallelSa(sim::Device& device, const Instance& instance,
                           const ParallelSaParams& params);

/// Creates a resumable parallel-SA engine on \p device (not owned; one
/// engine per device at a time).  Step units are generations.
/// Per-generation Philox streams are stateless in (seed, generation), so
/// a run split into slices replays bit-identically.
std::unique_ptr<meta::Engine> MakeParallelSaEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaParams& params);

}  // namespace cdd::par
