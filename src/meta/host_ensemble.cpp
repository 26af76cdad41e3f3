#include "meta/host_ensemble.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "meta/temperature.hpp"

namespace cdd::meta {
namespace {

using Clock = std::chrono::steady_clock;

class HostEnsembleEngine final : public Engine {
 public:
  HostEnsembleEngine(const SequenceObjective& objective,
                     const HostEnsembleParams& params)
      : objective_(objective), params_(params) {
    const auto t_start = Clock::now();

    // Resolve the initial temperature once so every chain shares the
    // ladder (and the Salamon sampling is not repeated per chain).
    SaParams chain = params_.chain;
    if (chain.initial_temperature <= 0.0) {
      chain.initial_temperature =
          InitialTemperature(objective_, chain.temp_samples,
                             chain.budget.seed);
    }

    engines_.reserve(params_.chains);
    for (std::uint32_t c = 0; c < params_.chains; ++c) {
      SaParams mine = chain;
      // Chain-id keyed seeds: thread-count invariant.
      mine.budget.seed = chain.budget.seed + c;
      engines_.push_back(MakeSaEngine(objective_, mine));
    }
    if (engines_.empty()) status_ = StepStatus::kDone;
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  StepStatus Step(std::uint64_t units) override {
    if (status_ != StepStatus::kRunning || units == 0) return status_;
    const auto t_start = Clock::now();

    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned workers = std::min<unsigned>(
        params_.threads == 0 ? std::max(hw, 1u) : params_.threads,
        static_cast<unsigned>(engines_.size()));

    // Lockstep slice: every chain advances by the same unit budget, claimed
    // dynamically so fast chains do not idle behind slow ones.  Chains are
    // independent engines, so concurrent Steps never share state.
    std::atomic<std::uint32_t> next{0};
    const auto worker = [&]() {
      for (;;) {
        const std::uint32_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= engines_.size()) break;
        engines_[c]->Step(units);
      }
    };
    if (workers <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
    }

    bool any_running = false;
    bool any_stopped = false;
    for (const auto& engine : engines_) {
      switch (engine->Step(0)) {  // status query
        case StepStatus::kRunning: any_running = true; break;
        case StepStatus::kStopped: any_stopped = true; break;
        case StepStatus::kDone: break;
      }
    }
    if (any_stopped) {
      status_ = StepStatus::kStopped;
    } else if (!any_running) {
      status_ = StepStatus::kDone;
    }
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
    return status_;
  }

  std::uint64_t Remaining() const override {
    std::uint64_t remaining = 0;
    for (const auto& engine : engines_) {
      remaining = std::max(remaining, engine->Remaining());
    }
    return status_ == StepStatus::kRunning ? remaining : 0;
  }

  Cost BestCost() const override {
    Cost best = kInfiniteCost;
    for (const auto& engine : engines_) {
      best = std::min(best, engine->BestCost());
    }
    return best;
  }

  EngineOutput Finish() override {
    EngineOutput out;
    RunResult& best = out.result;
    std::uint32_t best_chain = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t c = 0; c < engines_.size(); ++c) {
      const EngineOutput chain = engines_[c]->Finish();
      best.evaluations += chain.result.evaluations;
      best.stopped = best.stopped || chain.result.stopped;
      // Ties break toward the lower chain id so the outcome does not
      // depend on scheduling.
      if (chain.result.best_cost < best.best_cost ||
          (chain.result.best_cost == best.best_cost && c < best_chain)) {
        best.best = chain.result.best;
        best.best_cost = chain.result.best_cost;
        best_chain = c;
      }
    }
    best.wall_seconds = elapsed_;
    return out;
  }

 private:
  SequenceObjective objective_;
  HostEnsembleParams params_;
  std::vector<std::unique_ptr<Engine>> engines_;
  StepStatus status_ = StepStatus::kRunning;
  double elapsed_ = 0.0;
};

}  // namespace

std::unique_ptr<Engine> MakeHostEnsembleEngine(
    const SequenceObjective& objective, const HostEnsembleParams& params) {
  return std::make_unique<HostEnsembleEngine>(objective, params);
}

RunResult RunHostEnsembleSa(const SequenceObjective& objective,
                            const HostEnsembleParams& params) {
  HostEnsembleEngine engine(objective, params);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
