#pragma once
/// \file host_ensemble.hpp
/// \brief Multi-core CPU ensemble SA — the baseline the paper never ran.
///
/// The paper compares its GPU ensembles against *single-threaded* CPU
/// implementations.  A fair modern question is how far plain std::thread
/// parallelism gets: this runs the same asynchronous multi-chain SA
/// (identical per-chain algorithm and Philox streams as the GPU version's
/// chains) across host threads and reduces the best result.
/// bench_ablation_host_ensemble compares it against the modeled GPU.

#include <cstdint>
#include <memory>

#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/result.hpp"
#include "meta/sa.hpp"

namespace cdd::meta {

/// Parameters of the host-parallel ensemble.
struct HostEnsembleParams {
  std::uint32_t chains = 64;    ///< independent SA chains
  std::uint32_t threads = 0;    ///< host threads; 0 = hardware_concurrency
  SaParams chain;               ///< per-chain SA configuration
};

/// Runs `chains` independent SA chains over a host thread pool and returns
/// the best result.  Deterministic in (seed, chains) — independent of the
/// thread count — because chain c uses seed chain.budget.seed + c.  The
/// serve WorkerPool relies on this contract to clamp `threads` freely
/// without changing results (tests/meta/host_ensemble_test.cpp pins it).
///
/// Cancellation: `params.chain.budget.stop` is honored both inside each
/// chain and between chains; a stopped run sets RunResult::stopped.  The
/// thread-count invariance contract applies only to runs that finish
/// unstopped — where a wall-clock stop lands depends on scheduling by
/// construction.
RunResult RunHostEnsembleSa(const SequenceObjective& objective,
                            const HostEnsembleParams& params);

/// Creates a resumable host-ensemble engine (see engine.hpp): `chains`
/// independent SA engines stepped in lockstep slices over host threads,
/// deterministically merged at Finish.  Step units are SA iterations
/// (applied to every chain).
std::unique_ptr<Engine> MakeHostEnsembleEngine(
    const SequenceObjective& objective, const HostEnsembleParams& params);

}  // namespace cdd::meta
