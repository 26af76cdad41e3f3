#pragma once
/// \file engine.hpp
/// \brief Resumable engine lifecycle: Init -> Step -> Finish.
///
/// Every registered engine is an Engine object whose construction is the
/// Init phase (instance + native parameters), whose search loop advances
/// in caller-sized Step slices, and whose Finish returns the run record.
/// The contract the property tests pin down:
///
///   * A run split across ANY sequence of Step slices is bit-identical to
///     an uninterrupted run: same best cost, same best sequence, same
///     evaluation count, same trajectory samples.
///   * Stepping never consumes randomness beyond what the equivalent
///     uninterrupted loop would, so the golden run manifests recorded
///     before this refactor still replay bit-for-bit.
///
/// The unit of one Step is the engine's native major iteration: SA/TA
/// iterations, DPSO/ES generations, synchronous-SA temperature levels,
/// branch-and-bound nodes.  Callers that need wall-clock slices size the
/// unit budget themselves.
///
/// This lifecycle is what the racing portfolio (src/portfolio) and the
/// serve layer's preemption build on: both pause an engine only at a Step
/// boundary and keep it alive until they resume or finish it.

#include <cstdint>

#include "core/stop_token.hpp"
#include "meta/result.hpp"

namespace cdd::meta {

/// Outcome of a Step slice.
enum class StepStatus {
  kRunning,  ///< budget remains; call Step again
  kDone,     ///< the full iteration budget ran
  kStopped,  ///< the StopToken truncated the search
};

/// Normalized outcome of a finished engine (what the registry adapters
/// return): the host-side result plus the modeled device time (zero for
/// host engines).
struct EngineOutput {
  RunResult result;
  double device_seconds = 0.0;
};

/// The budget of one iterative search — the part of every iterative
/// engine's parameters that the Step loop consumes.
struct SearchBudget {
  /// Native Step units of the whole run: iterations (sa, ta),
  /// generations (dpso, es, psa, pdpso) or temperature levels (psa-sync).
  std::uint64_t iterations = 1000;
  std::uint64_t seed = 1;
  /// When > 0, the result's trajectory records the best-so-far cost after
  /// every iteration i with i % trajectory_stride == 0.
  std::uint32_t trajectory_stride = 0;
  /// Cooperative cancellation, polled before an iteration (every
  /// iteration or every kStopCheckStride-th, per engine).  A stopped run
  /// returns its best-so-far with `stopped` set; a run that completes is
  /// bit-identical to one without a token.
  StopToken stop{};
};

/// Step budget meaning "run to completion".
inline constexpr std::uint64_t kStepAll = ~std::uint64_t{0};

/// A resumable solver.  Not thread-safe: one engine is driven by one
/// thread at a time (the serve worker or the racing portfolio).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Advances up to \p units native iterations (saturating at the
  /// configured budget).  Step(0) is a no-op status query.
  virtual StepStatus Step(std::uint64_t units) = 0;

  /// Native iterations left in the budget (0 when done or stopped).
  virtual std::uint64_t Remaining() const = 0;

  /// Best-so-far cost — the convergence counter the racing portfolio
  /// compares between rounds.  Valid from construction on.
  virtual Cost BestCost() const = 0;

  /// Finalizes and returns the run record.  Idempotent (Finish does not
  /// consume state).
  virtual EngineOutput Finish() = 0;
};

/// Drives \p engine to completion in one slice — the run-to-completion
/// functions (RunSerialSa & friends) are exactly this.
inline EngineOutput RunToCompletion(Engine& engine) {
  engine.Step(kStepAll);
  return engine.Finish();
}

}  // namespace cdd::meta
