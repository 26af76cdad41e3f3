#pragma once
/// \file chain.hpp
/// \brief Single-chain engine shared by serial SA and Threshold Accepting.
///
/// Both walk one Markov chain over (permutation, splits) candidates.  The
/// chain works in place: each iteration applies a split shift (m > 1
/// only) or a sequence move to the current row, scores that one row with
/// SequenceObjective::Evaluate, and keeps the move when the acceptance
/// rule says so.  A rejected move is undone from what the move recorded:
/// the shuffled positions and the jobs they held, the two swapped
/// indices, or the one split boundary it moved — never by copying the
/// row.  ChainEngine owns that chain; the derived engine (CRTP) supplies
/// only
///
///   * `Perturb(std::uint64_t i)` — the sequence neighbourhood, applied
///     with Shuffle() or Swap();
///   * `Accept(Cost candidate_energy, std::uint64_t i)` — the acceptance
///     rule against `state_.energy`;
///   * `TrajectorySample()` (see search_loop.hpp);
///
/// plus its RNG stream id and initial temperature or threshold.  Internal
/// to src/meta.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

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
    return [this](std::uint64_t i) {
      Derived& self = static_cast<Derived&>(*this);
      ChainState& chain = this->state_;
      // Move-family selection draws happen only on the m > 1 path, so
      // single-machine runs replay their historical RNG schedule.
      if (machines_ > 1 && this->rng_.NextUniform() <= kReassignProb) {
        move_ = Move::kSplit;
        split_undo_ =
            SplitShift(std::span<std::int32_t>(chain.splits),
                       static_cast<std::int32_t>(chain.current.size()),
                       this->rng_);
      } else {
        self.Perturb(i);
      }
      const Cost energy = objective_.Evaluate(chain.current, chain.splits);
      ++this->loop_.result.evaluations;
      if (self.Accept(energy, i)) {
        Keep(energy);
      } else {
        Undo();
      }
    };
  }

 protected:
  ChainEngine(const SequenceObjective& objective, const SearchBudget& budget,
              const ChainSetup& setup, const std::optional<Sequence>& initial)
      : SerialEngine<Derived, State, kStopCheckStride>(budget, setup.stream),
        objective_(objective),
        machines_(objective.machines()),
        pert_(setup.pert),
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
  }

  /// The Pert-sized partial Fisher-Yates shuffle of the current row.
  void Shuffle() {
    move_ = Move::kShuffle;
    shuffled_ = PartialFisherYates(std::span<JobId>(this->state_.current),
                                   pert_, this->rng_,
                                   std::span<std::uint32_t>(positions_),
                                   std::span<JobId>(values_));
  }

  /// A random swap of two positions of the current row.
  void Swap() {
    move_ = Move::kSwap;
    swapped_ = RandomSwap(std::span<JobId>(this->state_.current), this->rng_);
  }

  /// Initial temperature or threshold, resolved at construction.
  double initial_level_ = 0.0;

 private:
  /// Probability of proposing a machine-reassignment (split-shift) move
  /// instead of a sequence move on multi-machine instances.
  static constexpr float kReassignProb = 0.25f;

  enum class Move { kShuffle, kSwap, kSplit };

  void Keep(Cost energy) {
    ChainState& chain = this->state_;
    chain.energy = energy;
    RunResult& result = this->loop_.result;
    if (chain.energy < result.best_cost) {
      result.best_cost = chain.energy;
      result.best = chain.current;
      result.best_splits = chain.splits;
    }
  }

  void Undo() {
    ChainState& chain = this->state_;
    switch (move_) {
      case Move::kShuffle:
        for (std::uint32_t k = 0; k < shuffled_; ++k) {
          chain.current[positions_[k]] = values_[k];
        }
        return;
      case Move::kSwap:
        if (swapped_.first != swapped_.second) {
          std::swap(chain.current[swapped_.first],
                    chain.current[swapped_.second]);
        }
        return;
      case Move::kSplit:
        chain.splits[split_undo_.boundary] = split_undo_.before;
        return;
    }
  }

  SequenceObjective objective_;
  std::int32_t machines_ = 1;
  std::uint32_t pert_;
  /// The last move and what undoing it needs.
  Move move_ = Move::kShuffle;
  std::uint32_t shuffled_ = 0;
  std::vector<std::uint32_t> positions_;
  std::vector<JobId> values_;
  std::pair<std::uint32_t, std::uint32_t> swapped_;
  SplitShiftUndo split_undo_;
};

}  // namespace cdd::meta
