#include "meta/sa.hpp"

#include <algorithm>
#include <cmath>

#include "meta/chain.hpp"
#include "trace/tracer.hpp"

namespace cdd::meta {
namespace {

class SaEngine final : public ChainEngine<SaEngine> {
 public:
  static constexpr const char* kTraceSpan = "meta.sa";

  SaEngine(const SequenceObjective& objective, const SaParams& params,
           const std::optional<Sequence>& initial)
      : ChainEngine(objective, params.budget,
                    {.stream = 0x5a5a5a5aULL,
                     .pert = params.pert,
                     .level = params.initial_temperature,
                     .level_samples = params.temp_samples,
                     .level_scale = 1.0},
                    initial),
        params_(params),
        schedule_(params.cooling, initial_level_, params.mu,
                  params.budget.iterations),
        period_(std::max(params.shuffle_period, 1u)) {}

  void Perturb(std::uint64_t i) {
    if (params_.neighborhood == NeighborhoodMode::kShuffleEveryIteration ||
        i % period_ == 0) {
      Shuffle();
    } else {
      Swap();
    }
  }

  /// Metropolis: always accept improvements; accept uphill moves with
  /// probability exp((E - E_new)/T)  (Algorithm 1, line 7).
  bool Accept(Cost candidate_energy, std::uint64_t i) {
    const double u = rng_.NextUniform();
    return std::exp(static_cast<double>(state_.energy - candidate_energy) /
                    std::max(schedule_(i), 1e-300)) >= u;
  }

  Cost TrajectorySample() const {
    // Convergence telemetry rides the existing sampling points, so the
    // trace adds no work on unsampled iterations and never touches rng.
    CDD_TRACE_COUNTER("sa.best_cost", loop_.result.best_cost);
    return loop_.result.best_cost;
  }

 private:
  SaParams params_;
  CoolingSchedule schedule_;
  std::uint32_t period_;
};

}  // namespace

std::unique_ptr<Engine> MakeSaEngine(const SequenceObjective& objective,
                                     const SaParams& params,
                                     const std::optional<Sequence>& initial) {
  return std::make_unique<SaEngine>(objective, params, initial);
}

RunResult RunSerialSa(const SequenceObjective& objective,
                      const SaParams& params,
                      const std::optional<Sequence>& initial) {
  SaEngine engine(objective, params, initial);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
