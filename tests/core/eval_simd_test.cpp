/// Bit-identity property tests for the lane-per-candidate SIMD evaluators:
/// EvalCddBatchSimd / EvalUcddcpBatchSimd (and the portable lane kernels
/// behind the aarch64 build) must agree bit-for-bit with the scalar batch,
/// the fused scalar row evaluator, the two-pass reference and — on small
/// instances — the LP oracle, across full lane groups, scalar remainders
/// and degenerate penalty corners.  The dispatch entry points and both
/// evaluators' EvaluateBatch are pinned to the same results at the
/// paper's 768-candidate ensemble.

#include "core/eval_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "core/cpu_features.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_raw.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/instance.hpp"
#include "lp/sequence_evaluator.hpp"

namespace cdd {
namespace {

CandidatePool RandomPool(std::size_t n, std::size_t batch,
                         std::uint64_t seed) {
  CandidatePool pool(n, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    pool.Append(testing::RandomSeq(static_cast<std::uint32_t>(n),
                                   seed * 1000 + b));
  }
  return pool;
}

/// Batch sizes that exercise full 4-lane AVX2 groups, full 2-lane portable
/// groups, scalar remainders of every phase, and the empty remainder.
constexpr std::size_t kBatches[] = {1, 2, 3, 4, 5, 7, 8, 11, 16};

struct BatchOutputs {
  std::vector<Cost> costs;
  std::vector<std::int32_t> pinned;
  std::vector<Time> offsets;

  explicit BatchOutputs(std::size_t batch)
      : costs(batch, -1), pinned(batch, -2), offsets(batch, -3) {}
};

/// Runs SIMD, portable-lane and scalar batch builds over the same pool and
/// pins all three to the fused and two-pass scalar row evaluators.
void ExpectCddSimdBitIdentical(const Instance& instance, std::uint64_t seed,
                              std::size_t batch) {
  const CddEvaluator eval(instance);
  const auto n = static_cast<std::int32_t>(instance.size());
  CandidatePool pool = RandomPool(instance.size(), batch, seed);
  const CandidatePoolView v = pool.view();
  const auto count = static_cast<std::int32_t>(v.count);

  BatchOutputs simd(batch);
  BatchOutputs lanes(batch);
  BatchOutputs scalar(batch);
  raw::EvalCddBatchSimd(n, eval.due_date(), v.seqs, v.stride, count,
                        eval.proc_data(), eval.alpha_data(),
                        eval.beta_data(), simd.costs.data(),
                        simd.pinned.data(), simd.offsets.data());
  raw::EvalCddBatchPortableLanes(
      n, eval.due_date(), v.seqs, v.stride, count, eval.proc_data(),
      eval.alpha_data(), eval.beta_data(), lanes.costs.data(),
      lanes.pinned.data(), lanes.offsets.data());
  raw::EvalCddBatch(n, eval.due_date(), v.seqs, v.stride, count,
                    eval.proc_data(), eval.alpha_data(), eval.beta_data(),
                    scalar.costs.data(), scalar.pinned.data(),
                    scalar.offsets.data());

  for (std::size_t b = 0; b < batch; ++b) {
    const raw::EvalResult ref =
        raw::EvalCdd(n, eval.due_date(), pool.row(b).data(),
                     eval.proc_data(), eval.alpha_data(), eval.beta_data());
    const raw::EvalResult fused = raw::EvalCddFused(
        n, eval.due_date(), pool.row(b).data(), eval.proc_data(),
        eval.alpha_data(), eval.beta_data());
    ASSERT_EQ(fused.cost, ref.cost);
    for (const BatchOutputs* out : {&simd, &lanes, &scalar}) {
      ASSERT_EQ(out->costs[b], ref.cost)
          << "n=" << n << " seed=" << seed << " batch=" << batch
          << " row=" << b;
      ASSERT_EQ(out->pinned[b], ref.pinned);
      ASSERT_EQ(out->offsets[b], ref.offset);
    }
  }
}

void ExpectUcddcpSimdBitIdentical(const Instance& instance,
                                  std::uint64_t seed, std::size_t batch) {
  const UcddcpEvaluator eval(instance);
  const auto n = static_cast<std::int32_t>(instance.size());
  CandidatePool pool = RandomPool(instance.size(), batch, seed);
  const CandidatePoolView v = pool.view();
  const auto count = static_cast<std::int32_t>(v.count);

  BatchOutputs simd(batch);
  BatchOutputs lanes(batch);
  BatchOutputs scalar(batch);
  raw::EvalUcddcpBatchSimd(n, eval.due_date(), v.seqs, v.stride, count,
                           eval.proc_data(), eval.min_proc_data(),
                           eval.alpha_data(), eval.beta_data(),
                           eval.gamma_data(), simd.costs.data(),
                           simd.pinned.data(), simd.offsets.data());
  raw::EvalUcddcpBatchPortableLanes(
      n, eval.due_date(), v.seqs, v.stride, count, eval.proc_data(),
      eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
      eval.gamma_data(), lanes.costs.data(), lanes.pinned.data(),
      lanes.offsets.data());
  raw::EvalUcddcpBatch(n, eval.due_date(), v.seqs, v.stride, count,
                       eval.proc_data(), eval.min_proc_data(),
                       eval.alpha_data(), eval.beta_data(),
                       eval.gamma_data(), scalar.costs.data(),
                       scalar.pinned.data(), scalar.offsets.data());

  for (std::size_t b = 0; b < batch; ++b) {
    const raw::EvalResult ref = raw::EvalUcddcp(
        n, eval.due_date(), pool.row(b).data(), eval.proc_data(),
        eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
        eval.gamma_data());
    for (const BatchOutputs* out : {&simd, &lanes, &scalar}) {
      ASSERT_EQ(out->costs[b], ref.cost)
          << "n=" << n << " seed=" << seed << " batch=" << batch
          << " row=" << b;
      ASSERT_EQ(out->pinned[b], ref.pinned);
      ASSERT_EQ(out->offsets[b], ref.offset);
    }
  }
}

TEST(EvalSimdCdd, MatchesScalarOnSmallRandomInstances) {
  for (std::uint32_t n = 1; n <= 8; ++n) {
    for (const double h : {0.2, 0.6, 1.2}) {
      for (const std::size_t batch : kBatches) {
        ExpectCddSimdBitIdentical(testing::RandomCdd(n, h, n + batch),
                                  n + batch, batch);
      }
    }
  }
}

TEST(EvalSimdCdd, MatchesScalarOnLargeRandomInstances) {
  for (const std::uint32_t n : {50u, 200u, 500u}) {
    for (const double h : {0.4, 0.8}) {
      for (const std::size_t batch : {4u, 7u, 16u}) {
        ExpectCddSimdBitIdentical(testing::RandomCdd(n, h, n + batch),
                                  n + batch, batch);
      }
    }
  }
}

TEST(EvalSimdCdd, MatchesScalarOnPenaltyEdgeCases) {
  // Zero earliness penalties: sliding right never pays, pinned may stay -1
  // (the crossing loop retires lanes immediately).
  ExpectCddSimdBitIdentical(
      Instance(Problem::kCdd, /*d=*/6, {3, 1, 4, 2, 5}, {0, 0, 0, 0, 0},
               {2, 6, 1, 3, 4}),
      /*seed=*/21, /*batch=*/7);
  // Zero tardiness penalties: every profitable shift crosses, lanes walk
  // the crossing loop all the way down.
  ExpectCddSimdBitIdentical(
      Instance(Problem::kCdd, /*d=*/6, {3, 1, 4, 2, 5}, {5, 2, 7, 4, 1},
               {0, 0, 0, 0, 0}),
      /*seed=*/22, /*batch=*/7);
  // d = 0: all tardy, tau = -1 in every lane.
  ExpectCddSimdBitIdentical(
      Instance(Problem::kCdd, /*d=*/0, {3, 1, 4}, {5, 2, 7}, {2, 6, 1}),
      /*seed=*/23, /*batch=*/5);
  // d = sum P: the whole block fits left of the due date.
  ExpectCddSimdBitIdentical(
      Instance(Problem::kCdd, /*d=*/8, {3, 1, 4}, {5, 2, 7}, {2, 6, 1}),
      /*seed=*/24, /*batch=*/5);
  // The paper's Table I example.
  ExpectCddSimdBitIdentical(testing::PaperExampleCdd(), /*seed=*/25,
                            /*batch=*/6);
}

TEST(EvalSimdCdd, MatchesLpOracleOnSmallInstances) {
  for (const std::uint32_t n : {1u, 3u, 6u, 8u}) {
    for (const double h : {0.3, 0.7}) {
      const Instance instance = testing::RandomCdd(n, h, 97 + n);
      const CddEvaluator eval(instance);
      const lp::LpSequenceEvaluator oracle(instance);
      CandidatePool pool = RandomPool(n, /*batch=*/5, /*seed=*/n + 41);
      const CandidatePoolView v = pool.view();
      std::vector<Cost> costs(pool.size(), -1);
      raw::EvalCddBatchSimd(static_cast<std::int32_t>(n), eval.due_date(),
                            v.seqs, v.stride,
                            static_cast<std::int32_t>(v.count),
                            eval.proc_data(), eval.alpha_data(),
                            eval.beta_data(), costs.data());
      for (std::size_t b = 0; b < pool.size(); ++b) {
        ASSERT_EQ(costs[b], oracle.Evaluate(pool.row(b)))
            << "n=" << n << " h=" << h << " row=" << b;
      }
    }
  }
}

TEST(EvalSimdCdd, WideValuesFallBackToScalarIdentically) {
  // Processing times beyond the 21-bit packing limit must take the scalar
  // fallback inside EvalCddBatchSimd and still return exact results.
  const Time wide = (Time{1} << 30) + 17;
  ExpectCddSimdBitIdentical(
      Instance(Problem::kCdd, /*d=*/wide * 2, {wide, 3, wide + 5},
               {5, 2, 7}, {2, 6, 1}),
      /*seed=*/31, /*batch=*/6);
}

TEST(EvalSimdUcddcp, MatchesScalarOnSmallRandomInstances) {
  for (std::uint32_t n = 1; n <= 8; ++n) {
    for (const double h : {1.0, 1.4}) {  // unrestricted requires h >= 1
      for (const std::size_t batch : kBatches) {
        ExpectUcddcpSimdBitIdentical(testing::RandomUcddcp(n, h, n + batch),
                                     n + batch, batch);
      }
    }
  }
}

TEST(EvalSimdUcddcp, MatchesScalarOnLargeRandomInstances) {
  for (const std::uint32_t n : {50u, 200u, 500u}) {
    for (const std::size_t batch : {4u, 7u, 16u}) {
      ExpectUcddcpSimdBitIdentical(testing::RandomUcddcp(n, 1.2, n + batch),
                                   n + batch, batch);
    }
  }
}

TEST(EvalSimdUcddcp, MatchesScalarOnPenaltyEdgeCases) {
  // Zero earliness penalties can leave no pinned job (r = -1): the
  // compression walks must be skipped lane-wise and the CDD relaxation
  // returned verbatim.
  ExpectUcddcpSimdBitIdentical(
      Instance(Problem::kUcddcp, /*d=*/30, {3, 1, 4, 2, 5}, {0, 0, 0, 0, 0},
               {2, 6, 1, 3, 4}, {1, 1, 2, 1, 3}, {4, 2, 5, 1, 3}),
      /*seed=*/41, /*batch=*/7);
  // The paper's Table I example (d = 22).
  ExpectUcddcpSimdBitIdentical(testing::PaperExampleUcddcp(), /*seed=*/42,
                               /*batch=*/6);
}

TEST(EvalSimdUcddcp, LanesRetireAtTheirOwnDueDatePosition) {
  // Job 0 carries most of the earliness mass and a little tardiness, job 1
  // a large tardiness: a row led by job 0 crosses all the way down
  // (r = 0), a row ending in job 0 stops at once (r = n-1), and the other
  // two rows stop in between — so one 4-lane AVX2 group and both 2-lane
  // portable groups hold lanes that retire at different positions.
  for (const Time slack : {Time{0}, Time{7}}) {  // d = sum P and d > sum P
    const Instance instance(Problem::kUcddcp, /*d=*/23 + slack,
                            /*proc=*/{3, 1, 4, 1, 5, 9},
                            /*early=*/{50, 0, 1, 1, 1, 1},
                            /*tardy=*/{5, 40, 1, 1, 1, 1},
                            /*min_proc=*/{1, 1, 2, 1, 3, 4},
                            /*compress=*/{2, 0, 3, 1, 2, 5});
    const UcddcpEvaluator eval(instance);
    CandidatePool pool(instance.size(), 4);
    pool.Append(Sequence{1, 2, 3, 4, 5, 0});  // r = 5
    pool.Append(Sequence{0, 1, 2, 3, 4, 5});  // r = 0
    pool.Append(Sequence{2, 3, 0, 1, 4, 5});  // r = 2
    pool.Append(Sequence{2, 0, 1, 3, 4, 5});  // r = 1
    const CandidatePoolView v = pool.view();
    BatchOutputs simd(4);
    BatchOutputs lanes(4);
    raw::EvalUcddcpBatchSimd(6, eval.due_date(), v.seqs, v.stride, 4,
                             eval.proc_data(), eval.min_proc_data(),
                             eval.alpha_data(), eval.beta_data(),
                             eval.gamma_data(), simd.costs.data(),
                             simd.pinned.data(), simd.offsets.data());
    raw::EvalUcddcpBatchPortableLanes(
        6, eval.due_date(), v.seqs, v.stride, 4, eval.proc_data(),
        eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
        eval.gamma_data(), lanes.costs.data(), lanes.pinned.data(),
        lanes.offsets.data());
    const std::int32_t expected_r[] = {5, 0, 2, 1};
    for (std::size_t b = 0; b < 4; ++b) {
      const raw::EvalResult ref = raw::EvalUcddcp(
          6, eval.due_date(), pool.row(b).data(), eval.proc_data(),
          eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
          eval.gamma_data());
      ASSERT_EQ(ref.pinned, expected_r[b]) << "row=" << b;
      for (const BatchOutputs* out : {&simd, &lanes}) {
        EXPECT_EQ(out->costs[b], ref.cost) << "slack=" << slack
                                           << " row=" << b;
        EXPECT_EQ(out->pinned[b], ref.pinned);
        EXPECT_EQ(out->offsets[b], ref.offset);
      }
    }
  }
}

TEST(EvalSimdUcddcp, MatchesLpOracleOnSmallInstances) {
  for (const std::uint32_t n : {1u, 3u, 6u}) {
    const Instance instance = testing::RandomUcddcp(n, 1.3, 55 + n);
    const UcddcpEvaluator eval(instance);
    const lp::LpSequenceEvaluator oracle(instance);
    CandidatePool pool = RandomPool(n, /*batch=*/5, /*seed=*/n + 71);
    const CandidatePoolView v = pool.view();
    std::vector<Cost> costs(pool.size(), -1);
    raw::EvalUcddcpBatchSimd(
        static_cast<std::int32_t>(n), eval.due_date(), v.seqs, v.stride,
        static_cast<std::int32_t>(v.count), eval.proc_data(),
        eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
        eval.gamma_data(), costs.data());
    for (std::size_t b = 0; b < pool.size(); ++b) {
      ASSERT_EQ(costs[b], oracle.Evaluate(pool.row(b)))
          << "n=" << n << " row=" << b;
    }
  }
}

TEST(EvalSimdDispatch, BackendNamesAreConsistent) {
  EXPECT_EQ(core::ToString(core::EvalBackend::kScalar), "scalar");
  EXPECT_EQ(core::ToString(core::EvalBackend::kSimd), "simd");
  // The ISA string and the availability probe must agree.
  const std::string isa = raw::SimdBatchIsa();
  EXPECT_EQ(isa != "none", raw::SimdBatchAvailable());
  if (raw::SimdBatchAvailable()) {
    EXPECT_TRUE(raw::SimdBatchCompiledIn());
    EXPECT_TRUE(isa == "avx2" || isa == "neon");
  }
  // ActiveEvalBackend is resolved once and never picks an unrunnable
  // backend.
  if (!raw::SimdBatchAvailable()) {
    EXPECT_EQ(core::ActiveEvalBackend(), core::EvalBackend::kScalar);
  }
}

using CddBatchFn = decltype(&raw::EvalCddBatchDispatch);
using UcddcpBatchFn = decltype(&raw::EvalUcddcpBatchDispatch);

/// One raw batch entry point over every row of \p v; unwritten rows keep
/// the -1 sentinel.
std::vector<Cost> RunBatch(CddBatchFn fn, const CddEvaluator& eval,
                           const CandidatePoolView& v) {
  std::vector<Cost> costs(v.count, -1);
  fn(v.n, eval.due_date(), v.seqs, v.stride,
     static_cast<std::int32_t>(v.count), eval.proc_data(), eval.alpha_data(),
     eval.beta_data(), costs.data(), nullptr, nullptr);
  return costs;
}

std::vector<Cost> RunBatch(UcddcpBatchFn fn, const UcddcpEvaluator& eval,
                           const CandidatePoolView& v) {
  std::vector<Cost> costs(v.count, -1);
  fn(v.n, eval.due_date(), v.seqs, v.stride,
     static_cast<std::int32_t>(v.count), eval.proc_data(),
     eval.min_proc_data(), eval.alpha_data(), eval.beta_data(),
     eval.gamma_data(), costs.data(), nullptr, nullptr);
  return costs;
}

/// Every path an engine can score a pool through agrees bit for bit: the
/// dispatching raw call, both explicit backends, the evaluator's
/// EvaluateBatch and one Evaluate per row.
template <class Evaluator, class BatchFn>
void ExpectEveryPathAgrees(const Instance& instance, std::size_t batch,
                           std::uint64_t seed, BatchFn dispatch,
                           BatchFn simd, BatchFn scalar) {
  const Evaluator eval(instance);
  CandidatePool pool = RandomPool(instance.size(), batch, seed);
  const std::vector<Cost> via_scalar = RunBatch(scalar, eval, pool.view());
  EXPECT_EQ(RunBatch(simd, eval, pool.view()), via_scalar);
  EXPECT_EQ(RunBatch(dispatch, eval, pool.view()), via_scalar);

  std::fill(pool.costs().begin(), pool.costs().end(), Cost{-1});
  eval.EvaluateBatch(pool);
  EXPECT_EQ(std::vector<Cost>(pool.costs().begin(), pool.costs().end()),
            via_scalar);
  std::vector<Cost> per_row(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    per_row[b] = eval.Evaluate(pool.row(b));
  }
  EXPECT_EQ(per_row, via_scalar);
}

TEST(EvalSimdDispatch, DispatchMatchesBothExplicitBackends) {
  // A short batch with a scalar remainder, then the paper's 768-chain
  // ensemble at the three benchmark sizes: whole lane groups and no
  // remainder, so the last lane group holds the batch's last rows.
  struct Shape {
    std::uint32_t n;
    std::size_t batch;
    std::uint64_t seed;
  };
  for (const Shape& s : {Shape{40, 11, 7}, Shape{50, 768, 51},
                         Shape{200, 768, 201}, Shape{500, 768, 501}}) {
    SCOPED_TRACE("n=" + std::to_string(s.n) +
                 " batch=" + std::to_string(s.batch));
    ExpectEveryPathAgrees<CddEvaluator>(
        testing::RandomCdd(s.n, 0.6, s.seed), s.batch, s.seed + 2,
        &raw::EvalCddBatchDispatch, &raw::EvalCddBatchSimd,
        &raw::EvalCddBatch);
    ExpectEveryPathAgrees<UcddcpEvaluator>(
        testing::RandomUcddcp(s.n, 1.3, s.seed), s.batch, s.seed + 3,
        &raw::EvalUcddcpBatchDispatch, &raw::EvalUcddcpBatchSimd,
        &raw::EvalUcddcpBatch);
  }
}

}  // namespace
}  // namespace cdd
