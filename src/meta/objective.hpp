#pragma once
/// \file objective.hpp
/// \brief Sequence-level objective shared by all metaheuristics.
///
/// Layer (i) of the paper's two-layered approach searches over job
/// sequences; the objective of that search is "optimal schedule cost of the
/// sequence", provided by the O(n) evaluators of layer (ii).
///
/// SequenceObjective packages that as a concrete value type.  For kCdd and
/// kUcddcp instances it owns the flattened SoA instance arrays and calls
/// the raw evaluators directly — no type erasure, no per-candidate
/// indirect dispatch.  Population engines hand it a whole generation at
/// a time: EvaluateBatch(pool) runs cdd::raw::EvalCddBatch /
/// EvalUcddcpBatch over the pool's stride-aligned rows while the instance
/// arrays stay cache-resident.  The serial chains score their one row
/// with Evaluate, which skips the batch entry points' per-call instance
/// checks and packing.  The restricted controllable problem (kCddcp) has no
/// O(n) evaluator; lp::MakeLpObjective supplies a BatchEvaluator fallback
/// behind the same interface, so every engine is written once.

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/candidate_pool.hpp"
#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"
#include "core/instance.hpp"
#include "core/sequence.hpp"

namespace cdd::meta {

/// Fallback evaluation backend for objectives with no O(n) algorithm (the
/// LP-in-the-loop path).  The batch default simply walks the pool — the
/// virtual call is per *generation*, never per candidate.
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;

  /// Optimal cost of one sequence.
  virtual Cost Evaluate(std::span<const JobId> seq) const = 0;

  /// Evaluates every live row of \p pool into pool.costs(); backends with
  /// no schedule geometry leave pinned[b] = -1.
  virtual void EvaluateBatch(CandidatePool& pool) const {
    const std::size_t count = pool.size();
    for (std::size_t b = 0; b < count; ++b) {
      pool.costs()[b] = Evaluate(pool.row(b));
      pool.pinned()[b] = -1;
    }
  }
};

/// Concrete objective over job sequences (lower is better).
class SequenceObjective {
 public:
  /// Builds the O(n) evaluator for the instance's problem variant.
  /// Problem::kCddcp has no O(n) evaluator — use lp::MakeLpObjective.
  /// Multi-machine and early-work instances (Instance::machines() > 1 /
  /// ScheduleObjective::kEarlyWork, CDD only — Instance::Validate enforces
  /// that) get the splits-aware kinds; their candidates carry the
  /// (machines-1) ascending split positions of eval_raw.hpp next to the
  /// permutation, so only pools built with the matching machine count are
  /// accepted by EvaluateBatch.
  static SequenceObjective ForInstance(const Instance& instance) {
    if (instance.problem() == Problem::kCddcp) {
      throw std::invalid_argument(
          "SequenceObjective::ForInstance: the restricted controllable "
          "problem has no O(n) evaluator; build the objective with "
          "lp::MakeLpObjective");
    }
    if (instance.objective() == ScheduleObjective::kEarlyWork) {
      return SequenceObjective(Kind::kEarlyWork, instance);
    }
    if (instance.machines() > 1) {
      return SequenceObjective(Kind::kCddMachines, instance);
    }
    return SequenceObjective(instance.problem() == Problem::kUcddcp
                                 ? Kind::kUcddcp
                                 : Kind::kCdd,
                             instance);
  }

  /// Objective backed by a custom evaluation backend (the LP fallback).
  SequenceObjective(std::size_t n,
                    std::shared_ptr<const BatchEvaluator> backend)
      : kind_(Kind::kFallback), n_(n), backend_(std::move(backend)) {
    if (backend_ == nullptr) {
      throw std::invalid_argument("SequenceObjective: null backend");
    }
  }

  /// Optimal cost of one sequence: the serial chains' per-move path (a
  /// population engine should cost a generation with EvaluateBatch).
  /// Multi-machine objectives need the splits overload below; calling
  /// this one with machines() > 1 throws.
  Cost Evaluate(std::span<const JobId> seq) const {
    if (machines_ > 1) {
      throw std::invalid_argument(
          "SequenceObjective::Evaluate: multi-machine objective needs the "
          "(seq, splits) overload");
    }
    const auto n = static_cast<std::int32_t>(seq.size());
    switch (kind_) {
      case Kind::kCdd:
      case Kind::kCddMachines:  // m == 1 degenerates to the fused evaluator
        return raw::EvalCddFused(n, d_, seq.data(), proc_.data(),
                                 alpha_.data(), beta_.data())
            .cost;
      case Kind::kEarlyWork:
        return raw::EvalEarlyWork(n, 1, d_, seq.data(), nullptr, proc_.data())
            .cost;
      case Kind::kUcddcp:
        return (ucddcp_one_pass_
                    ? raw::EvalUcddcpOnePass(n, d_, seq.data(), proc_.data(),
                                             min_proc_.data(), alpha_.data(),
                                             beta_.data(), gamma_.data(),
                                             ucddcp_sums_.alpha)
                    : raw::EvalUcddcp(n, d_, seq.data(), proc_.data(),
                                      min_proc_.data(), alpha_.data(),
                                      beta_.data(), gamma_.data()))
            .cost;
      case Kind::kFallback:
        break;
    }
    return backend_->Evaluate(seq);
  }

  /// Optimal cost of one multi-machine candidate: \p splits holds the
  /// (machines()-1) ascending split positions (empty for machines() == 1).
  Cost Evaluate(std::span<const JobId> seq,
                std::span<const std::int32_t> splits) const {
    if (splits.size() !=
        static_cast<std::size_t>(std::max<std::int32_t>(machines_, 1) - 1)) {
      throw std::invalid_argument(
          "SequenceObjective::Evaluate: splits length must be machines-1");
    }
    if (machines_ <= 1) return Evaluate(seq);
    const auto n = static_cast<std::int32_t>(seq.size());
    if (kind_ == Kind::kEarlyWork) {
      return raw::EvalEarlyWork(n, machines_, d_, seq.data(), splits.data(),
                                proc_.data())
          .cost;
    }
    return raw::EvalCddMachines(n, machines_, d_, seq.data(), splits.data(),
                                proc_.data(), alpha_.data(), beta_.data())
        .cost;
  }

  Cost operator()(std::span<const JobId> seq) const { return Evaluate(seq); }

  /// Evaluates every live row of \p pool in one call: costs() and pinned()
  /// are filled per row.  The population engines' generation hot path.
  void EvaluateBatch(CandidatePool& pool) const {
    const CandidatePoolView v = pool.view();
    if (machines_ > 1 && v.machines != machines_) {
      throw std::invalid_argument(
          "SequenceObjective::EvaluateBatch: pool machine count does not "
          "match the objective");
    }
    switch (kind_) {
      case Kind::kCdd:
        raw::EvalCddBatchDispatch(v.n, d_, v.seqs, v.stride,
                                  static_cast<std::int32_t>(v.count),
                                  proc_.data(), alpha_.data(), beta_.data(),
                                  v.costs, v.pinned);
        return;
      case Kind::kCddMachines:
        raw::EvalCddMachinesBatchDispatch(
            v.n, machines_, d_, v.seqs, v.stride, v.splits,
            static_cast<std::int32_t>(v.count), proc_.data(), alpha_.data(),
            beta_.data(), v.costs, v.pinned);
        return;
      case Kind::kEarlyWork:
        raw::EvalEarlyWorkBatchDispatch(v.n, machines_, d_, v.seqs, v.stride,
                                        v.splits,
                                        static_cast<std::int32_t>(v.count),
                                        proc_.data(), v.costs, v.pinned);
        return;
      case Kind::kUcddcp:
        raw::EvalUcddcpBatchDispatch(v.n, d_, v.seqs, v.stride,
                                     static_cast<std::int32_t>(v.count),
                                     proc_.data(), min_proc_.data(),
                                     alpha_.data(), beta_.data(),
                                     gamma_.data(), v.costs, v.pinned);
        return;
      case Kind::kFallback:
        backend_->EvaluateBatch(pool);
        return;
    }
  }

  std::size_t size() const { return n_; }

  /// Machine count of the instance this objective evaluates (1 for all
  /// single-machine kinds, including the LP fallback).
  std::int32_t machines() const { return machines_; }

  /// True for the early-work (late-work minimization) objective variant.
  bool early_work() const { return kind_ == Kind::kEarlyWork; }

  /// True when the objective evaluates through the O(n) SoA fast path
  /// (false for backend-driven objectives such as the LP fallback).
  bool direct() const { return kind_ != Kind::kFallback; }

 private:
  enum class Kind { kCdd, kUcddcp, kCddMachines, kEarlyWork, kFallback };

  SequenceObjective(Kind kind, const Instance& instance)
      : kind_(kind),
        n_(instance.size()),
        d_(instance.due_date()),
        machines_(instance.machines()) {
    proc_.reserve(n_);
    alpha_.reserve(n_);
    beta_.reserve(n_);
    const bool controllable = kind == Kind::kUcddcp;
    if (controllable) {
      if (!instance.is_unrestricted()) {
        throw std::invalid_argument(
            "SequenceObjective: instance is restricted (d < sum P_i); the "
            "O(n) algorithm of Awasthi et al. requires the unrestricted "
            "case");
      }
      min_proc_.reserve(n_);
      gamma_.reserve(n_);
    }
    for (const Job& j : instance.jobs()) {
      proc_.push_back(j.proc);
      alpha_.push_back(j.early);
      beta_.push_back(j.tardy);
      if (controllable) {
        min_proc_.push_back(j.min_proc);
        gamma_.push_back(j.compress);
      }
    }
    if (controllable) {
      ucddcp_sums_ = raw::SumUcddcp(static_cast<std::int32_t>(n_),
                                    proc_.data(), alpha_.data());
      ucddcp_one_pass_ = raw::UcddcpOnePassApplies(d_, ucddcp_sums_);
    }
  }

  Kind kind_;
  std::size_t n_;
  Time d_ = 0;
  std::int32_t machines_ = 1;
  std::vector<Time> proc_;
  std::vector<Time> min_proc_;
  std::vector<Cost> alpha_;
  std::vector<Cost> beta_;
  std::vector<Cost> gamma_;
  /// UCDDCP instance constants, so Evaluate walks the row once.
  raw::UcddcpSums ucddcp_sums_;
  bool ucddcp_one_pass_ = false;
  std::shared_ptr<const BatchEvaluator> backend_;
};

/// Historical name; every engine now takes the concrete SequenceObjective.
using Objective = SequenceObjective;

}  // namespace cdd::meta
