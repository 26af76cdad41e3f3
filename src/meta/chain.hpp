#pragma once
/// \file chain.hpp
/// \brief Single-chain engine shared by serial SA and Threshold Accepting.
///
/// Both walk one Markov chain over (permutation, splits) candidates: copy
/// the current state into the candidate row, propose a split shift (m > 1
/// only) or a sequence move, evaluate, and adopt the candidate when the
/// acceptance rule says so.  ChainEngine owns that chain; the derived
/// engine (CRTP) supplies only
///
///   * `Perturb(std::span<JobId> candidate, std::uint64_t i)` — the
///     sequence neighbourhood, drawing from `rng_`;
///   * `Accept(Cost candidate_energy, std::uint64_t i)` — the acceptance
///     rule against `state_.energy`;
///   * `TrajectorySample()` (see search_loop.hpp);
///
/// plus its RNG stream id and initial temperature or threshold.  Internal
/// to src/meta.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/candidate_pool.hpp"
#include "meta/objective.hpp"
#include "meta/search_loop.hpp"
#include "meta/splits.hpp"
#include "meta/temperature.hpp"

namespace cdd::meta {

/// Current state of one chain.
struct ChainState {
  Sequence current;
  std::vector<std::int32_t> splits;  ///< machines-1 entries (empty if m=1)
  Cost energy = 0;
};

/// Start-up knobs that differ between the chain engines.
struct ChainSetup {
  std::uint64_t stream;  ///< Philox stream id under the budget's seed
  std::uint32_t pert;    ///< partial Fisher-Yates shuffle size
  CandidatePool* pool;   ///< optional lent pool (needs one row)
  /// Initial temperature or threshold; <= 0 selects `level_scale` times
  /// the Salamon rule over `level_samples` random sequences.
  double level;
  std::uint64_t level_samples;
  double level_scale;
};

template <class Derived, class State = ChainState>
class ChainEngine : public SerialEngine<Derived, State, kStopCheckStride> {
 public:
  auto BeginSlice() {
    CandidatePool& pool = *lease_;
    const std::span<JobId> candidate = pool.row(0);
    return [this, &pool, candidate](std::uint64_t i) {
      Derived& self = static_cast<Derived&>(*this);
      ChainState& chain = this->state_;
      std::copy(chain.current.begin(), chain.current.end(),
                candidate.begin());
      bool sequence_move = true;
      if (machines_ > 1) {
        std::copy(chain.splits.begin(), chain.splits.end(),
                  pool.splits_row(0).begin());
        // Move-family selection draws happen only on the m > 1 path, so
        // single-machine runs replay their historical RNG schedule.
        if (this->rng_.NextUniform() <= kReassignProb) {
          sequence_move = false;
          SplitShift(pool.splits_row(0),
                     static_cast<std::int32_t>(chain.current.size()),
                     this->rng_);
        }
      }
      if (sequence_move) self.Perturb(candidate, i);
      objective_.EvaluateBatch(pool);
      const Cost energy = pool.costs()[0];
      ++this->loop_.result.evaluations;
      if (self.Accept(energy, i)) Adopt(candidate, pool, energy);
    };
  }

 protected:
  ChainEngine(const SequenceObjective& objective, const SearchBudget& budget,
              const ChainSetup& setup, const std::optional<Sequence>& initial)
      : SerialEngine<Derived, State, kStopCheckStride>(budget, setup.stream),
        objective_(objective),
        machines_(objective.machines()),
        pert_(setup.pert),
        lease_(setup.pool, objective.size(), /*capacity=*/1,
               static_cast<std::size_t>(objective.machines())),
        positions_(setup.pert),
        values_(setup.pert) {
    const ElapsedTimer timer(this->loop_.elapsed);
    ChainState& chain = this->state_;
    const std::size_t n = objective_.size();
    chain.current =
        initial.has_value() ? *initial : RandomSequence(n, this->rng_);
    if (machines_ > 1) {
      // Deterministic even initial assignment — no RNG draws consumed.
      chain.splits.resize(static_cast<std::size_t>(machines_ - 1));
      EvenSplits(chain.splits, n);
      chain.energy = objective_.Evaluate(chain.current, chain.splits);
    } else {
      chain.energy = objective_(chain.current);
    }
    RunResult& result = this->loop_.result;
    result.evaluations = 1;
    result.best = chain.current;
    result.best_cost = chain.energy;
    result.best_splits = chain.splits;
    initial_level_ =
        setup.level > 0.0
            ? setup.level
            : setup.level_scale * InitialTemperature(objective_,
                                                     setup.level_samples,
                                                     budget.seed);
    (*lease_).AppendUninitialized();
  }

  /// The Pert-sized partial Fisher-Yates shuffle of \p candidate.
  void Shuffle(std::span<JobId> candidate) {
    PartialFisherYates(candidate, pert_, this->rng_,
                       std::span<std::uint32_t>(positions_),
                       std::span<JobId>(values_));
  }

  /// Initial temperature or threshold, resolved at construction.
  double initial_level_ = 0.0;

 private:
  /// Probability of proposing a machine-reassignment (split-shift) move
  /// instead of a sequence move on multi-machine instances.
  static constexpr float kReassignProb = 0.25f;

  void Adopt(std::span<const JobId> candidate, CandidatePool& pool,
             Cost energy) {
    ChainState& chain = this->state_;
    chain.current.assign(candidate.begin(), candidate.end());
    if (machines_ > 1) {
      const auto splits = pool.splits_row(0);
      chain.splits.assign(splits.begin(), splits.end());
    }
    chain.energy = energy;
    RunResult& result = this->loop_.result;
    if (chain.energy < result.best_cost) {
      result.best_cost = chain.energy;
      result.best = chain.current;
      result.best_splits = chain.splits;
    }
  }

  SequenceObjective objective_;
  std::int32_t machines_ = 1;
  std::uint32_t pert_;
  PoolLease lease_;
  std::vector<std::uint32_t> positions_;
  std::vector<JobId> values_;
};

}  // namespace cdd::meta
