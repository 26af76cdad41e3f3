#include "meta/threshold.hpp"

#include "meta/chain.hpp"

namespace cdd::meta {
namespace {

/// The decayed threshold is a host accumulator (threshold *= decay each
/// iteration), so it is part of the chain state.
struct TaState : ChainState {
  double threshold = 0.0;
};

class TaEngine final : public ChainEngine<TaEngine, TaState> {
 public:
  TaEngine(const SequenceObjective& objective, const TaParams& params,
           const std::optional<Sequence>& initial)
      : ChainEngine(objective, params.budget,
                    {.stream = 0x7aULL,
                     .pert = params.pert,
                     .level = params.initial_threshold,
                     .level_samples = params.temp_samples,
                     .level_scale = 0.5},
                    initial),
        decay_(params.decay) {
    state_.threshold = initial_level_;
  }

  void Perturb(std::uint64_t /*i*/) { Shuffle(); }

  /// Accept iff E_new - E <= threshold; the threshold then decays.
  bool Accept(Cost candidate_energy, std::uint64_t /*i*/) {
    const bool accept =
        static_cast<double>(candidate_energy - state_.energy) <=
        state_.threshold;
    state_.threshold *= decay_;
    return accept;
  }

  Cost TrajectorySample() const { return loop_.result.best_cost; }

 private:
  double decay_;
};

}  // namespace

std::unique_ptr<Engine> MakeTaEngine(const SequenceObjective& objective,
                                     const TaParams& params,
                                     const std::optional<Sequence>& initial) {
  return std::make_unique<TaEngine>(objective, params, initial);
}

RunResult RunThresholdAccepting(const SequenceObjective& objective,
                                const TaParams& params,
                                const std::optional<Sequence>& initial) {
  TaEngine engine(objective, params, initial);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
