#include "meta/evostrategy.hpp"

#include <algorithm>
#include <utility>

#include "core/candidate_pool.hpp"
#include "meta/search_loop.hpp"

namespace cdd::meta {
namespace {

struct Individual {
  Sequence genome;
  Cost cost = 0;
};

/// The search state is the whole population.  The returned best is
/// derived from the population at Finish (as the original run did), so
/// the loop's result carries no best snapshot.
class EsEngine final
    : public SerialEngine<EsEngine, std::vector<Individual>> {
 public:
  EsEngine(const SequenceObjective& objective, const EsParams& params)
      : SerialEngine(params.budget, /*stream=*/0xe5ULL),
        objective_(objective),
        params_(params),
        lease_(params.pool, objective.size(),
               std::max<std::uint32_t>(
                   std::max(params.lambda, params.mu), 1)),
        positions_(params.pert),
        values_(params.pert) {
    const ElapsedTimer timer(loop_.elapsed);
    const std::size_t n = objective_.size();

    // Offspring are bred directly inside the pool: each child row is a
    // copy of its parent perturbed in place, and the whole brood is costed
    // with one EvaluateBatch call per generation.
    CandidatePool& pool = *lease_;
    state_.reserve(params_.mu + params_.lambda);
    for (std::uint32_t i = 0; i < params_.mu; ++i) {
      Individual ind;
      ind.genome = RandomSequence(n, rng_);
      pool.Append(ind.genome);
      state_.push_back(std::move(ind));
    }
    objective_.EvaluateBatch(pool);
    for (std::uint32_t i = 0; i < params_.mu; ++i) {
      state_[i].cost = pool.costs()[i];
      ++loop_.result.evaluations;
    }
  }

  auto BeginSlice() {
    return [this](std::uint64_t /*generation*/) { Generation(); };
  }

  Cost TrajectorySample() const { return state_.front().cost; }

  Cost BestCost() const override {
    // Before the first selection the population is unsorted, so scan it
    // (mu is small); afterwards front() is the minimum anyway.
    Cost best = kInfiniteCost;
    for (const Individual& ind : state_) best = std::min(best, ind.cost);
    return best;
  }

  EngineOutput Finish() override {
    EngineOutput out = SerialEngine::Finish();
    out.result.best = state_.front().genome;
    out.result.best_cost = state_.front().cost;
    return out;
  }

 private:
  void Generation() {
    CandidatePool& pool = *lease_;
    const std::size_t parents = state_.size();
    pool.Clear();
    for (std::uint32_t k = 0; k < params_.lambda; ++k) {
      const std::uint32_t pick =
          UniformBelow(rng_, static_cast<std::uint32_t>(parents));
      const std::span<JobId> child =
          pool.row(pool.Append(state_[pick].genome));
      PartialFisherYates(child, params_.pert, rng_,
                         std::span<std::uint32_t>(positions_),
                         std::span<JobId>(values_));
    }
    objective_.EvaluateBatch(pool);
    for (std::uint32_t k = 0; k < params_.lambda; ++k) {
      const std::span<const JobId> genome = pool.row(k);
      Individual child;
      child.genome.assign(genome.begin(), genome.end());
      child.cost = pool.costs()[k];
      ++loop_.result.evaluations;
      state_.push_back(std::move(child));
    }
    // Plus-selection: keep the best mu individuals (stable for
    // determinism).
    std::stable_sort(state_.begin(), state_.end(),
                     [](const Individual& a, const Individual& b) {
                       return a.cost < b.cost;
                     });
    state_.resize(params_.mu);
  }

  SequenceObjective objective_;
  EsParams params_;
  PoolLease lease_;
  std::vector<std::uint32_t> positions_;
  std::vector<JobId> values_;
};

}  // namespace

std::unique_ptr<Engine> MakeEsEngine(const SequenceObjective& objective,
                                     const EsParams& params) {
  return std::make_unique<EsEngine>(objective, params);
}

RunResult RunEvolutionStrategy(const SequenceObjective& objective,
                               const EsParams& params) {
  EsEngine engine(objective, params);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
