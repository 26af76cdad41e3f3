#pragma once
/// \file race.hpp
/// \brief Convergence-driven racing meta-engine over resumable engines.
///
/// A race starts several contender engines on the same instance and
/// advances them in lockstep rounds: each round every live contender gets
/// a fixed Step slice, then contenders whose best-so-far cost is strictly
/// dominated by the round leader's are killed and their remaining budget
/// implicitly reallocates to the survivors (they keep receiving full
/// slices until done).  Survivors run to their complete native budget, so
/// a race's result is bit-identical to its winner's solo run — racing
/// only decides *which* engine gets to finish, never what that engine
/// computes.  That is what makes a pinned race deterministic: same
/// contenders + same slice => same kill schedule => same winner.
///
/// The race is itself a meta::Engine (Step unit = one scheduling round),
/// so it can be cached and preempted like any contender, mid-race
/// included: a paused race keeps every live contender and the kill
/// bookkeeping until its next round.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "meta/engine.hpp"
#include "portfolio/bandit.hpp"

namespace cdd::portfolio {

/// One racing participant: a freshly constructed (not yet stepped)
/// resumable engine plus the registry name it came from.
struct RaceContender {
  std::string name;
  std::unique_ptr<meta::Engine> engine;
};

/// Racing knobs.  Both are result-determining for the race (they decide
/// the kill schedule, hence the winner).
struct RaceParams {
  /// Step units every live contender advances per round.  Units are
  /// engine-native (SA iterations, DPSO generations, BnB nodes, ...).
  std::uint64_t slice = 64;
  /// Rounds before the first kill — early best costs are noise, so the
  /// race lets every contender warm up before comparing convergence.
  std::uint64_t grace_rounds = 4;
  /// When set, the finished race records its winner into
  /// BanditPrior::Global() under this feature bucket, feeding the
  /// adaptive contender selection of future races.
  std::optional<InstanceFeatures> features;
};

/// What happened in one race — for benches and tests; the replayable
/// result lives in the winner's EngineOutput.
struct RaceReport {
  std::string winner;
  std::uint64_t rounds = 0;
  std::vector<std::string> killed;  ///< in kill order
};

/// The racing meta-engine.  Step(k) runs k scheduling rounds; Finish()
/// returns the winner's output with the whole race's work accounted in
/// `evaluations` and `device_seconds`.
class RaceEngine final : public meta::Engine {
 public:
  /// \p contenders must be non-empty; their engines must be freshly
  /// constructed (round 0 assumes no contender has stepped yet).
  RaceEngine(std::vector<RaceContender> contenders, RaceParams params);

  meta::StepStatus Step(std::uint64_t units) override;
  std::uint64_t Remaining() const override;
  Cost BestCost() const override;
  meta::EngineOutput Finish() override;

  const RaceReport& report() const { return report_; }

 private:
  void RunRound();
  std::size_t Leader() const;

  RaceParams params_;
  std::vector<RaceContender> contenders_;
  std::vector<meta::StepStatus> states_;  ///< per contender
  std::vector<bool> live_;                ///< false once killed
  std::uint64_t rounds_ = 0;
  meta::StepStatus status_ = meta::StepStatus::kRunning;
  RaceReport report_;
  bool recorded_ = false;  ///< bandit win recorded (first Finish only)
};

/// Convenience factory matching the engine-registry signature style.
std::unique_ptr<meta::Engine> MakeRaceEngine(
    std::vector<RaceContender> contenders, RaceParams params);

}  // namespace cdd::portfolio
