/// \file bench_micro_eval.cpp
/// \brief Experiment E11 — Section IV's motivation: "LP solvers are quite
/// slow when run iteratively on some general heuristic algorithm".
/// google-benchmark comparison of per-sequence latency:
///   O(n) evaluators  <<  O(n^2) reference oracles  <<  two-phase simplex.
/// The BM_*Batch* pairs time one 768-row generation batch of the
/// generator's instance (n = 50, 200, 500) through the scalar batch and
/// through the dispatch entry point (SIMD unless CDD_EVAL_BACKEND=scalar).
/// The BM_*OneRow* pairs time the serial chains' per-move score of one row
/// at n = 50, 200, 500: SequenceObjective::Evaluate against EvaluateBatch
/// on a one-row pool.

#include <benchmark/benchmark.h>

#include <span>

#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/reference_eval.hpp"
#include "lp/models.hpp"
#include "meta/objective.hpp"
#include "orlib/biskup_feldmann.hpp"

namespace {

using cdd::testing::RandomCdd;
using cdd::testing::RandomSeq;
using cdd::testing::RandomUcddcp;

void BM_EvalCddLinear(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::CddEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(n, n * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalCddLinear)->RangeMultiplier(4)->Range(8, 2048)->Complexity();

void BM_EvalUcddcpLinear(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomUcddcp(n, 1.1, n);
  const cdd::UcddcpEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(n, n * 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalUcddcpLinear)
    ->RangeMultiplier(4)
    ->Range(8, 2048)
    ->Complexity();

void BM_EvalCddReferenceOracle(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::Sequence seq = RandomSeq(n, n * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::ReferenceCddCost(instance, seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalCddReferenceOracle)
    ->RangeMultiplier(4)
    ->Range(8, 512)
    ->Complexity();

void BM_EvalCddSimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::Sequence seq = RandomSeq(n, n * 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::lp::SolveSequenceLp(instance, seq));
  }
}
BENCHMARK(BM_EvalCddSimplexLp)->Arg(8)->Arg(16)->Arg(32);

void BM_EvalUcddcpSimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomUcddcp(n, 1.1, n);
  const cdd::Sequence seq = RandomSeq(n, n * 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::lp::SolveSequenceLp(instance, seq));
  }
}
BENCHMARK(BM_EvalUcddcpSimplexLp)->Arg(8)->Arg(16)->Arg(32);

/// Rows per batch: the fitness launch's 768 chains.
constexpr std::size_t kBatchRows = 768;

cdd::CandidatePool RandomRows(std::uint32_t n) {
  cdd::CandidatePool pool(n, kBatchRows);
  for (std::size_t b = 0; b < kBatchRows; ++b) {
    pool.Append(RandomSeq(n, n * 13 + b));
  }
  return pool;
}

template <bool kDispatch>
void BM_UcddcpBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::UcddcpEvaluator eval(
      cdd::orlib::BiskupFeldmannGenerator().Ucddcp(n, 0));
  cdd::CandidatePool pool = RandomRows(n);
  const cdd::CandidatePoolView v = pool.view();
  const auto batch = static_cast<std::int32_t>(v.count);
  for (auto _ : state) {
    if (kDispatch) {
      cdd::raw::EvalUcddcpBatchDispatch(
          static_cast<std::int32_t>(n), eval.due_date(), v.seqs, v.stride,
          batch, eval.proc_data(), eval.min_proc_data(), eval.alpha_data(),
          eval.beta_data(), eval.gamma_data(), v.costs, v.pinned);
    } else {
      cdd::raw::EvalUcddcpBatch(
          static_cast<std::int32_t>(n), eval.due_date(), v.seqs, v.stride,
          batch, eval.proc_data(), eval.min_proc_data(), eval.alpha_data(),
          eval.beta_data(), eval.gamma_data(), v.costs, v.pinned);
    }
    benchmark::DoNotOptimize(v.costs);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_UcddcpBatch<false>)
    ->Name("BM_UcddcpBatchScalar")
    ->Arg(50)->Arg(200)->Arg(500);
BENCHMARK(BM_UcddcpBatch<true>)
    ->Name("BM_UcddcpBatchDispatch")
    ->Arg(50)->Arg(200)->Arg(500);

template <bool kDispatch>
void BM_CddBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::CddEvaluator eval(
      cdd::orlib::BiskupFeldmannGenerator().Cdd(n, 0, 0.4));
  cdd::CandidatePool pool = RandomRows(n);
  const cdd::CandidatePoolView v = pool.view();
  const auto batch = static_cast<std::int32_t>(v.count);
  for (auto _ : state) {
    if (kDispatch) {
      cdd::raw::EvalCddBatchDispatch(
          static_cast<std::int32_t>(n), eval.due_date(), v.seqs, v.stride,
          batch, eval.proc_data(), eval.alpha_data(), eval.beta_data(),
          v.costs, v.pinned);
    } else {
      cdd::raw::EvalCddBatch(static_cast<std::int32_t>(n), eval.due_date(),
                             v.seqs, v.stride, batch, eval.proc_data(),
                             eval.alpha_data(), eval.beta_data(), v.costs,
                             v.pinned);
    }
    benchmark::DoNotOptimize(v.costs);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CddBatch<false>)
    ->Name("BM_CddBatchScalar")
    ->Arg(50)->Arg(200)->Arg(500);
BENCHMARK(BM_CddBatch<true>)
    ->Name("BM_CddBatchDispatch")
    ->Arg(50)->Arg(200)->Arg(500);

/// One row through the objective, as the serial chains score it
/// (kBatch = false: SequenceObjective::Evaluate) and as they scored it
/// before (kBatch = true: EvaluateBatch on a one-row pool, which re-checks
/// and re-packs the instance on every call).
template <cdd::Problem kProblem, bool kBatch>
void BM_OneRow(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::orlib::BiskupFeldmannGenerator generator;
  const cdd::meta::SequenceObjective objective =
      cdd::meta::SequenceObjective::ForInstance(
          kProblem == cdd::Problem::kCdd ? generator.Cdd(n, 0, 0.4)
                                         : generator.Ucddcp(n, 0));
  cdd::CandidatePool pool(n, 1);
  pool.Append(RandomSeq(n, n * 13));
  const std::span<const cdd::JobId> row = pool.row(0);
  for (auto _ : state) {
    if (kBatch) {
      objective.EvaluateBatch(pool);
      benchmark::DoNotOptimize(pool.costs()[0]);
    } else {
      benchmark::DoNotOptimize(objective.Evaluate(row));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OneRow<cdd::Problem::kCdd, false>)
    ->Name("BM_CddOneRowEvaluate")
    ->Arg(50)->Arg(200)->Arg(500);
BENCHMARK(BM_OneRow<cdd::Problem::kCdd, true>)
    ->Name("BM_CddOneRowBatch")
    ->Arg(50)->Arg(200)->Arg(500);
BENCHMARK(BM_OneRow<cdd::Problem::kUcddcp, false>)
    ->Name("BM_UcddcpOneRowEvaluate")
    ->Arg(50)->Arg(200)->Arg(500);
BENCHMARK(BM_OneRow<cdd::Problem::kUcddcp, true>)
    ->Name("BM_UcddcpOneRowBatch")
    ->Arg(50)->Arg(200)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
