#include "meta/dpso.hpp"

#include "core/candidate_pool.hpp"
#include "meta/ops.hpp"
#include "meta/search_loop.hpp"
#include "trace/tracer.hpp"

namespace cdd::meta {
namespace {

struct Particle {
  Sequence position;
  Cost cost;
  Sequence best;
  Cost best_cost;
};

/// The search state is the whole swarm (positions and personal bests);
/// the published swarm best lives in the loop's result.
class DpsoEngine final
    : public SerialEngine<DpsoEngine, std::vector<Particle>> {
 public:
  static constexpr const char* kTraceSpan = "meta.dpso";

  DpsoEngine(const SequenceObjective& objective, const DpsoParams& params)
      : SerialEngine(params.budget, /*stream=*/0xd9500ULL),
        objective_(objective),
        params_(params),
        lease_(params.pool, objective.size(), params.swarm),
        marks_(objective.size()) {
    const ElapsedTimer timer(loop_.elapsed);
    const std::size_t n = objective_.size();

    // Whole-swarm SoA pool: every generation stages the updated positions
    // into the pool's stride-aligned rows and issues one EvaluateBatch
    // call.  The evaluators consume no rng, so splitting "perturb all"
    // from "evaluate all" leaves the Philox stream order — and therefore
    // every result — bit-identical to the interleaved loop.
    CandidatePool& pool = *lease_;
    state_.resize(params_.swarm);
    for (Particle& p : state_) {
      p.position = RandomSequence(n, rng_);
      pool.Append(p.position);
    }
    objective_.EvaluateBatch(pool);
    RunResult& result = loop_.result;
    for (std::size_t b = 0; b < state_.size(); ++b) {
      Particle& p = state_[b];
      p.cost = pool.costs()[b];
      ++result.evaluations;
      p.best = p.position;
      p.best_cost = p.cost;
      if (p.best_cost < result.best_cost) {
        result.best_cost = p.best_cost;
        result.best = p.best;
      }
    }
  }

  auto BeginSlice() {
    return [this](std::uint64_t /*generation*/) { Generation(); };
  }

  Cost TrajectorySample() const {
    CDD_TRACE_COUNTER("dpso.best_cost", loop_.result.best_cost);
    return loop_.result.best_cost;
  }

 private:
  void Generation() {
    CandidatePool& pool = *lease_;
    RunResult& result = loop_.result;
    const std::span<std::uint8_t> marks(marks_);
    pool.Clear();
    for (Particle& p : state_) {
      // w (+) F1: swap velocity.
      if (rng_.NextUniform() < params_.w) {
        RandomSwap(std::span<JobId>(p.position), rng_);
      }
      // c1 (+) F2: one-point crossover with the particle best, in place.
      if (rng_.NextUniform() < params_.c1) {
        OnePointCrossover(std::span<JobId>(p.position), p.best, rng_, marks);
      }
      // c2 (+) F3: two-point crossover with the swarm best.  p.best and
      // result.best are read-only within a generation (personal bests
      // and g(t) update below), so staging the evaluation is order-safe.
      if (rng_.NextUniform() < params_.c2) {
        TwoPointCrossover(std::span<JobId>(p.position), result.best, rng_,
                          marks);
      }
      pool.Append(p.position);
    }
    objective_.EvaluateBatch(pool);
    for (std::size_t b = 0; b < state_.size(); ++b) {
      Particle& p = state_[b];
      p.cost = pool.costs()[b];
      ++result.evaluations;
      if (p.cost < p.best_cost) {
        p.best_cost = p.cost;
        p.best = p.position;
      }
    }
    // Swarm best is updated once per generation (Algorithm 2 line 5), so
    // every particle of a generation sees the same g(t).
    for (const Particle& p : state_) {
      if (p.best_cost < result.best_cost) {
        result.best_cost = p.best_cost;
        result.best = p.best;
      }
    }
  }

  SequenceObjective objective_;
  DpsoParams params_;
  PoolLease lease_;
  std::vector<std::uint8_t> marks_;  ///< crossover mark table (n bytes)
};

}  // namespace

std::unique_ptr<Engine> MakeDpsoEngine(const SequenceObjective& objective,
                                       const DpsoParams& params) {
  return std::make_unique<DpsoEngine>(objective, params);
}

RunResult RunSerialDpso(const SequenceObjective& objective,
                        const DpsoParams& params) {
  DpsoEngine engine(objective, params);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
