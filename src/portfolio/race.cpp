#include "portfolio/race.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/tracer.hpp"

namespace cdd::portfolio {

RaceEngine::RaceEngine(std::vector<RaceContender> contenders,
                       RaceParams params)
    : params_(params), contenders_(std::move(contenders)) {
  if (contenders_.empty()) {
    throw std::invalid_argument("RaceEngine: empty portfolio");
  }
  if (params_.slice == 0) params_.slice = 1;
  states_.reserve(contenders_.size());
  for (const RaceContender& contender : contenders_) {
    // Step(0) is the status poll: an engine whose budget is zero is kDone
    // before the first round.
    states_.push_back(contender.engine->Step(0));
  }
  live_.assign(contenders_.size(), true);
  bool any_running = false;
  for (const meta::StepStatus state : states_) {
    any_running = any_running || state == meta::StepStatus::kRunning;
  }
  if (!any_running) {
    const bool any_stopped =
        std::any_of(states_.begin(), states_.end(), [](meta::StepStatus s) {
          return s == meta::StepStatus::kStopped;
        });
    status_ = any_stopped ? meta::StepStatus::kStopped
                          : meta::StepStatus::kDone;
  }
}

std::size_t RaceEngine::Leader() const {
  std::size_t leader = 0;
  Cost best = kInfiniteCost;
  bool found = false;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (!live_[i]) continue;
    const Cost cost = contenders_[i].engine->BestCost();
    if (!found || cost < best) {
      found = true;
      leader = i;
      best = cost;
    }
  }
  return leader;
}

void RaceEngine::RunRound() {
  ++rounds_;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (live_[i] && states_[i] == meta::StepStatus::kRunning) {
      states_[i] = contenders_[i].engine->Step(params_.slice);
    }
  }

  // Kill phase: strictly dominated *running* contenders die; finished
  // ones keep their (already paid-for) result in the winner pool.  The
  // strict comparison means cost ties survive, so the kill schedule — and
  // with it the winner — is a pure function of contenders + slice.
  std::size_t live_count = 0;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (live_[i]) ++live_count;
  }
  if (rounds_ > params_.grace_rounds && live_count > 1) {
    const std::size_t leader = Leader();
    const Cost lead = contenders_[leader].engine->BestCost();
    for (std::size_t i = 0; i < contenders_.size(); ++i) {
      if (i == leader || !live_[i] ||
          states_[i] != meta::StepStatus::kRunning) {
        continue;
      }
      if (contenders_[i].engine->BestCost() > lead && live_count > 1) {
        live_[i] = false;
        --live_count;
        report_.killed.push_back(contenders_[i].name);
        CDD_TRACE_INSTANT("race.kill");
      }
    }
  }

  bool any_running = false;
  bool any_stopped = false;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (!live_[i]) continue;
    any_running = any_running || states_[i] == meta::StepStatus::kRunning;
    any_stopped = any_stopped || states_[i] == meta::StepStatus::kStopped;
  }
  if (!any_running) {
    // A stopped survivor means the race as a whole was truncated: its
    // winner choice is deadline-dependent, so the result must not pass
    // for a full race (the serve layer will not cache it).
    status_ = any_stopped ? meta::StepStatus::kStopped
                          : meta::StepStatus::kDone;
  }
  CDD_TRACE_COUNTER("race.best_cost", BestCost());
}

meta::StepStatus RaceEngine::Step(std::uint64_t units) {
  CDD_TRACE_SPAN("portfolio.race");
  while (units > 0 && status_ == meta::StepStatus::kRunning) {
    RunRound();
    --units;
  }
  return status_;
}

std::uint64_t RaceEngine::Remaining() const {
  if (status_ != meta::StepStatus::kRunning) return 0;
  std::uint64_t rounds = 0;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (!live_[i] || states_[i] != meta::StepStatus::kRunning) continue;
    const std::uint64_t left = contenders_[i].engine->Remaining();
    if (left == meta::kStepAll) return meta::kStepAll;
    rounds = std::max(rounds, (left + params_.slice - 1) / params_.slice);
  }
  return rounds;
}

Cost RaceEngine::BestCost() const {
  Cost best = kInfiniteCost;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (live_[i]) best = std::min(best, contenders_[i].engine->BestCost());
  }
  return best;
}

meta::EngineOutput RaceEngine::Finish() {
  const std::size_t winner = Leader();
  report_.winner = contenders_[winner].name;
  report_.rounds = rounds_;

  meta::EngineOutput out = contenders_[winner].engine->Finish();
  // Honest accounting: the race's cost in evaluations and modeled device
  // time is what ALL contenders burned, not just the winner.
  out.result.evaluations = 0;
  out.device_seconds = 0.0;
  for (const RaceContender& contender : contenders_) {
    const meta::EngineOutput part = contender.engine->Finish();
    out.result.evaluations += part.result.evaluations;
    out.device_seconds += part.device_seconds;
  }
  // A race is only "complete" when it ran to kDone; anything else —
  // deadline mid-race, Finish() on a still-running race — is truncated.
  out.result.stopped = status_ != meta::StepStatus::kDone;

  if (params_.features && status_ == meta::StepStatus::kDone &&
      !recorded_) {
    std::vector<std::string> names;
    names.reserve(contenders_.size());
    for (const RaceContender& contender : contenders_) {
      names.push_back(contender.name);
    }
    BanditPrior::Global().RecordWin(*params_.features, report_.winner,
                                    names);
    recorded_ = true;
  }
  return out;
}

std::unique_ptr<meta::Engine> MakeRaceEngine(
    std::vector<RaceContender> contenders, RaceParams params) {
  return std::make_unique<RaceEngine>(std::move(contenders),
                                      std::move(params));
}

}  // namespace cdd::portfolio
