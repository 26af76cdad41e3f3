#pragma once
/// \file search_loop.hpp
/// \brief The budgeted Step loop shared by the iterative engines.
///
/// sa, ta, dpso, es and the device engines psa, pdpso and psa-sync all run
/// the same fixed-budget loop: clamp the Step slice to the budget, poll
/// the StopToken, run one native iteration, sample the trajectory, settle
/// kDone/kStopped and account wall time.  SearchLoop owns that loop (run
/// against the engine's SearchBudget, see engine.hpp) and the
/// bookkeeping it updates (iteration, result, status, elapsed).  An engine
/// supplies only these hooks (public members of \p Derived, resolved
/// statically — the hot loop makes no indirect call):
///
///   * `BeginSlice()` — per-slice setup; returns the per-iteration body,
///     a callable `void(std::uint64_t i)` for the 0-based iteration i;
///   * `TrajectorySample()` — the best-so-far cost at a sampling point.
///
/// An optional `static constexpr const char* kTraceSpan` wraps every
/// non-empty Step in a trace span of that name.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "meta/engine.hpp"
#include "meta/result.hpp"
#include "rng/philox.hpp"
#include "trace/tracer.hpp"

namespace cdd::meta {

/// Adds the wall time of its scope to an accumulator.
class ElapsedTimer {
 public:
  explicit ElapsedTimer(double& elapsed)
      : elapsed_(elapsed), start_(std::chrono::steady_clock::now()) {}
  ~ElapsedTimer() {
    elapsed_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
  }
  ElapsedTimer(const ElapsedTimer&) = delete;
  ElapsedTimer& operator=(const ElapsedTimer&) = delete;

 private:
  double& elapsed_;
  std::chrono::steady_clock::time_point start_;
};

/// What the loop updates.
template <class Result>
struct LoopState {
  std::uint64_t iteration = 0;  ///< next iteration to run (0-based)
  Result result;
  StepStatus status = StepStatus::kRunning;
  double elapsed = 0.0;  ///< host wall seconds spent so far
};

/// The loop core (see the file comment).  \p kPollStride is how often the
/// StopToken is polled, in iterations.
template <class Derived, class Result, std::uint64_t kPollStride = 1>
class SearchLoop : public Engine {
 public:
  StepStatus Step(std::uint64_t units) final {
    if (loop_.status != StepStatus::kRunning || units == 0) {
      return loop_.status;
    }
    if constexpr (requires { Derived::kTraceSpan; }) {
      CDD_TRACE_SPAN(Derived::kTraceSpan);
      return RunSlice(units);
    } else {
      return RunSlice(units);
    }
  }

  std::uint64_t Remaining() const final {
    return loop_.status == StepStatus::kRunning
               ? budget_.iterations - loop_.iteration
               : 0;
  }

 protected:
  explicit SearchLoop(const SearchBudget& budget) : budget_(budget) {
    if (budget_.iterations == 0) loop_.status = StepStatus::kDone;
  }

  SearchBudget budget_;
  LoopState<Result> loop_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  StepStatus RunSlice(std::uint64_t units) {
    const ElapsedTimer timer(loop_.elapsed);
    auto iterate = self().BeginSlice();
    const std::uint64_t end =
        loop_.iteration +
        std::min<std::uint64_t>(units, budget_.iterations - loop_.iteration);
    for (; loop_.iteration < end; ++loop_.iteration) {
      const std::uint64_t i = loop_.iteration;
      if (i % kPollStride == 0 && budget_.stop.stop_requested()) {
        loop_.result.stopped = true;
        loop_.status = StepStatus::kStopped;
        return loop_.status;
      }
      iterate(i);
      if (budget_.trajectory_stride > 0 &&
          i % budget_.trajectory_stride == 0) {
        loop_.result.trajectory.push_back(self().TrajectorySample());
      }
    }
    if (loop_.iteration == budget_.iterations) {
      loop_.status = StepStatus::kDone;
    }
    return loop_.status;
  }
};

/// SearchLoop for the host engines: the search state is a plain value
/// (`state_`) next to a Philox stream (`rng_`), and the result is the
/// loop's RunResult.
template <class Derived, class State, std::uint64_t kPollStride = 1>
class SerialEngine : public SearchLoop<Derived, RunResult, kPollStride> {
 public:
  Cost BestCost() const override { return this->loop_.result.best_cost; }

  EngineOutput Finish() override {
    EngineOutput out;
    out.result = this->loop_.result;
    out.result.wall_seconds = this->loop_.elapsed;
    return out;
  }

 protected:
  /// \p stream is the engine's Philox stream id under the budget's seed.
  SerialEngine(const SearchBudget& budget, std::uint64_t stream)
      : SearchLoop<Derived, RunResult, kPollStride>(budget),
        rng_(budget.seed, stream) {}

  rng::Philox4x32 rng_;
  State state_;
};

}  // namespace cdd::meta
