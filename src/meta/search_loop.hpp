#pragma once
/// \file search_loop.hpp
/// \brief The budgeted Step loop shared by the iterative engines.
///
/// sa, ta, dpso, es and the device engines psa, pdpso and psa-sync all run
/// the same fixed-budget loop: clamp the Step slice to the budget, poll
/// the StopToken, run one native iteration, sample the trajectory, settle
/// kDone/kStopped and account wall time.  SearchLoop owns that loop (run
/// against the engine's SearchBudget, see engine.hpp) and the
/// bookkeeping it updates (iteration, result, status, elapsed), which is
/// also the common header of every checkpoint.  An engine supplies only
/// these hooks (public members of \p Derived, resolved statically — the
/// hot loop makes no indirect call):
///
///   * `BeginSlice()` — per-slice setup; returns the per-iteration body,
///     a callable `void(std::uint64_t i)` for the 0-based iteration i;
///   * `TrajectorySample()` — the best-so-far cost at a sampling point;
///   * `Save(State&) const` / `Load(const State&)` — its own search state.
///     Load may throw std::invalid_argument before changing anything.
///
/// An optional `static constexpr const char* kTraceSpan` wraps every
/// non-empty Step in a trace span of that name.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

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

/// What the loop updates, and what every checkpoint carries beside the
/// engine's own state.
template <class Result>
struct LoopState {
  std::uint64_t iteration = 0;  ///< next iteration to run (0-based)
  Result result;
  StepStatus status = StepStatus::kRunning;
  double elapsed = 0.0;  ///< host wall seconds spent so far
};

/// The loop core (see the file comment).  \p kPollStride is how often the
/// StopToken is polled, in iterations.
template <class Derived, class Result, class State,
          std::uint64_t kPollStride = 1>
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

  std::unique_ptr<EngineCheckpoint> Checkpoint() const final {
    auto checkpoint = std::make_unique<Snapshot>();
    checkpoint->loop = loop_;
    self().Save(checkpoint->state);
    return checkpoint;
  }

  void Restore(const EngineCheckpoint& checkpoint) final {
    // Snapshot is a distinct type per Derived, so the cast rejects every
    // other engine's checkpoint.
    const auto* snapshot = dynamic_cast<const Snapshot*>(&checkpoint);
    if (snapshot == nullptr) {
      throw std::invalid_argument("Restore: foreign checkpoint");
    }
    self().Load(snapshot->state);
    loop_ = snapshot->loop;
  }

 protected:
  explicit SearchLoop(const SearchBudget& budget) : budget_(budget) {
    if (budget_.iterations == 0) loop_.status = StepStatus::kDone;
  }

  SearchBudget budget_;
  LoopState<Result> loop_;

 private:
  struct Snapshot final : EngineCheckpoint {
    LoopState<Result> loop;
    State state;
  };

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

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

/// Checkpointed state of a SerialEngine.
template <class State>
struct SerialState {
  rng::Philox4x32 rng{0};
  State search;
};

/// SearchLoop for the host engines: the search state is a plain value
/// (`state_`) next to a Philox stream (`rng_`), both checkpointed by copy,
/// and the result is the loop's RunResult.
template <class Derived, class State, std::uint64_t kPollStride = 1>
class SerialEngine
    : public SearchLoop<Derived, RunResult, SerialState<State>,
                        kPollStride> {
 public:
  Cost BestCost() const override { return this->loop_.result.best_cost; }

  EngineOutput Finish() override {
    EngineOutput out;
    out.result = this->loop_.result;
    out.result.wall_seconds = this->loop_.elapsed;
    return out;
  }

  void Save(SerialState<State>& s) const { s = {rng_, state_}; }
  void Load(const SerialState<State>& s) {
    rng_ = s.rng;
    state_ = s.search;
  }

 protected:
  /// \p stream is the engine's Philox stream id under the budget's seed.
  SerialEngine(const SearchBudget& budget, std::uint64_t stream)
      : SearchLoop<Derived, RunResult, SerialState<State>, kPollStride>(
            budget),
        rng_(budget.seed, stream) {}

  rng::Philox4x32 rng_;
  State state_;
};

}  // namespace cdd::meta
