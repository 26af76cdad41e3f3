#include "meta/evostrategy.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/candidate_pool.hpp"
#include "meta/search_loop.hpp"

namespace cdd::meta {
namespace {

struct Individual {
  Sequence genome;
  Cost cost = 0;
};

/// The whole population: mu + lambda individuals allocated once, and
/// `order`, their indices with the mu survivors first in rank order.  The
/// lambda slots behind them hold the individuals the last selection
/// dropped, and the next generation writes its children there.
struct EsState {
  std::vector<Individual> population;
  std::vector<std::uint32_t> order;

  const Individual& front() const { return population[order.front()]; }
};

/// The returned best is derived from the population at Finish (as the
/// original run did), so the loop's result carries no best snapshot.
class EsEngine final : public SerialEngine<EsEngine, EsState> {
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
    state_.population.assign(params_.mu + params_.lambda,
                             Individual{.genome = Sequence(n)});
    state_.order.resize(state_.population.size());
    std::iota(state_.order.begin(), state_.order.end(), 0u);
    for (std::uint32_t i = 0; i < params_.mu; ++i) {
      Sequence& genome = state_.population[i].genome;
      genome = RandomSequence(n, rng_);
      pool.Append(genome);
    }
    objective_.EvaluateBatch(pool);
    for (std::uint32_t i = 0; i < params_.mu; ++i) {
      state_.population[i].cost = pool.costs()[i];
      ++loop_.result.evaluations;
    }
  }

  auto BeginSlice() {
    return [this](std::uint64_t /*generation*/) { Generation(); };
  }

  Cost TrajectorySample() const { return state_.front().cost; }

  Cost BestCost() const override {
    // Before the first selection the parents are unsorted, so scan them
    // (mu is small); afterwards front() is the minimum anyway.
    Cost best = kInfiniteCost;
    for (std::uint32_t i = 0; i < params_.mu; ++i) {
      best = std::min(best, state_.population[state_.order[i]].cost);
    }
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
    std::vector<Individual>& population = state_.population;
    std::vector<std::uint32_t>& order = state_.order;
    const std::uint32_t mu = params_.mu;
    pool.Clear();
    for (std::uint32_t k = 0; k < params_.lambda; ++k) {
      const std::uint32_t pick = UniformBelow(rng_, mu);
      const std::span<JobId> child =
          pool.row(pool.Append(population[order[pick]].genome));
      PartialFisherYates(child, params_.pert, rng_,
                         std::span<std::uint32_t>(positions_),
                         std::span<JobId>(values_));
    }
    objective_.EvaluateBatch(pool);
    for (std::uint32_t k = 0; k < params_.lambda; ++k) {
      const std::span<const JobId> row = pool.row(k);
      Individual& child = population[order[mu + k]];
      std::copy(row.begin(), row.end(), child.genome.begin());
      child.cost = pool.costs()[k];
      ++loop_.result.evaluations;
    }
    // Plus-selection: keep the best mu individuals.  The insertion sort is
    // stable (ties keep parents before children, children in brood order)
    // and needs no buffer.
    for (std::size_t i = 1; i < order.size(); ++i) {
      const std::uint32_t moving = order[i];
      const Cost cost = population[moving].cost;
      std::size_t j = i;
      for (; j > 0 && cost < population[order[j - 1]].cost; --j) {
        order[j] = order[j - 1];
      }
      order[j] = moving;
    }
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
