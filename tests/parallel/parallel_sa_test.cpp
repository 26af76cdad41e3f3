/// Asynchronous parallel SA tests: correctness, determinism, RNG-stream
/// structure, profiler accounting, and the Figure 9 transfer pattern.

#include "parallel/parallel_sa.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "meta/objective.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par {
namespace {

ParallelSaParams SmallParams(std::uint32_t ensemble = 32,
                             std::uint32_t block = 16,
                             std::uint64_t gens = 200) {
  ParallelSaParams p;
  p.config = LaunchConfig::ForEnsemble(ensemble, block);
  p.budget.iterations = gens;
  p.temp_samples = 200;
  p.budget.seed = 11;
  return p;
}

TEST(ParallelSa, FindsOptimumOnTinyCddInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 301);
  const Cost optimum = BruteForceCdd(instance).cost;
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelSa(gpu, instance, SmallParams(32, 16, 300));
  EXPECT_EQ(result.best_cost, optimum);
  EXPECT_NO_THROW(ValidateSequence(result.best, 6));
}

TEST(ParallelSa, FindsOptimumOnTinyUcddcpInstance) {
  const Instance instance = cdd::testing::RandomUcddcp(7, 1.2, 302);
  const Cost optimum = BruteForceUcddcp(instance).cost;
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelSa(gpu, instance, SmallParams(32, 16, 300));
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(ParallelSa, BestCostMatchesReportedSequence) {
  const Instance instance = cdd::testing::RandomCdd(25, 0.6, 303);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  sim::Device gpu;
  const GpuRunResult result = RunParallelSa(gpu, instance, SmallParams());
  EXPECT_EQ(objective(result.best), result.best_cost);
}

TEST(ParallelSa, EveryStoppedRunReportsARowThatRecostsToItsBest) {
  // Personal-best rows are written out lazily (best_is_curr), so right
  // after an improvement the winner's row lives in curr.  Stopping after
  // every generation count from 1 to 40 hits such winners; Finish() must
  // report a row that recosts to best_cost.
  const Instance instance = cdd::testing::RandomCdd(25, 0.6, 303);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  for (std::uint64_t g = 1; g <= 40; ++g) {
    sim::Device gpu;
    auto engine = MakeParallelSaEngine(gpu, instance, SmallParams(32, 16, 40));
    engine->Step(g);
    const meta::EngineOutput out = engine->Finish();
    ASSERT_NO_THROW(ValidateSequence(out.result.best, 25)) << "g=" << g;
    ASSERT_EQ(objective(out.result.best), out.result.best_cost) << "g=" << g;
  }
}

TEST(ParallelSa, DeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.4, 304);
  sim::Device a;
  sim::Device b;
  const GpuRunResult ra = RunParallelSa(a, instance, SmallParams());
  const GpuRunResult rb = RunParallelSa(b, instance, SmallParams());
  EXPECT_EQ(ra.best_cost, rb.best_cost);
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_DOUBLE_EQ(ra.device_seconds, rb.device_seconds);
}

TEST(ParallelSa, WorkerCountDoesNotChangeResult) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 305);
  sim::Device seq_dev;
  seq_dev.set_worker_threads(1);
  sim::Device par_dev;
  par_dev.set_worker_threads(4);
  const GpuRunResult rs = RunParallelSa(seq_dev, instance, SmallParams());
  const GpuRunResult rp = RunParallelSa(par_dev, instance, SmallParams());
  EXPECT_EQ(rs.best_cost, rp.best_cost);
  EXPECT_EQ(rs.best, rp.best);
  // The workers place blocks; the evaluation count and the modeled
  // GT 560M clock stay those of the serial run.
  EXPECT_EQ(rs.evaluations, rp.evaluations);
  EXPECT_EQ(rs.device_seconds, rp.device_seconds);
}

TEST(ParallelSa, EnsembleInclusionProperty) {
  // Thread t's chain is a function of (seed, t) only, so an ensemble that
  // contains another's thread ids can never do worse.
  const Instance instance = cdd::testing::RandomCdd(15, 0.6, 306);
  sim::Device small_dev;
  sim::Device big_dev;
  ParallelSaParams small = SmallParams(8, 8, 150);
  ParallelSaParams big = SmallParams(32, 8, 150);
  const GpuRunResult rs = RunParallelSa(small_dev, instance, small);
  const GpuRunResult rb = RunParallelSa(big_dev, instance, big);
  EXPECT_LE(rb.best_cost, rs.best_cost);
}

TEST(ParallelSa, MoreGenerationsNeverHurt) {
  // The packed best is monotone in generations for a fixed seed.
  const Instance instance = cdd::testing::RandomCdd(15, 0.5, 307);
  sim::Device d1;
  sim::Device d2;
  const GpuRunResult r1 =
      RunParallelSa(d1, instance, SmallParams(16, 16, 50));
  const GpuRunResult r2 =
      RunParallelSa(d2, instance, SmallParams(16, 16, 500));
  EXPECT_LE(r2.best_cost, r1.best_cost);
}

TEST(ParallelSa, TrajectoryIsMonotone) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 308);
  sim::Device gpu;
  ParallelSaParams params = SmallParams(16, 16, 200);
  params.budget.trajectory_stride = 10;
  const GpuRunResult result = RunParallelSa(gpu, instance, params);
  ASSERT_EQ(result.trajectory.size(), 20u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
  // The last sample precedes the final generations, so it can only be an
  // upper bound on the final best.
  EXPECT_GE(result.trajectory.back(), result.best_cost);
}

TEST(ParallelSa, LaunchesTheFourKernelPipeline) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 309);
  sim::Device gpu;
  const std::uint64_t gens = 25;
  RunParallelSa(gpu, instance, SmallParams(16, 16, gens));
  const auto& prof = gpu.profiler();
  // Fitness: initial + one per generation.
  ASSERT_NE(prof.Find("sa_fitness"), nullptr);
  EXPECT_EQ(prof.Find("sa_fitness")->launches, gens + 1);
  ASSERT_NE(prof.Find("sa_perturbation"), nullptr);
  EXPECT_EQ(prof.Find("sa_perturbation")->launches, gens);
  ASSERT_NE(prof.Find("sa_acceptance"), nullptr);
  EXPECT_EQ(prof.Find("sa_acceptance")->launches, gens);
  ASSERT_NE(prof.Find("sa_reduction"), nullptr);
  EXPECT_EQ(prof.Find("sa_reduction")->launches, gens);
}

TEST(ParallelSa, TransferPatternMatchesFigure9) {
  // Uploads: instance arrays + constants + initial ensemble; downloads at
  // the end: the packed best (8 bytes) + one sequence row.
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 310);
  sim::Device gpu;
  const std::uint32_t ensemble = 16;
  ParallelSaParams params = SmallParams(ensemble, 16, 30);
  const GpuRunResult result = RunParallelSa(gpu, instance, params);
  (void)result;
  const auto& prof = gpu.profiler();
  EXPECT_GT(prof.h2d().count, 0u);
  EXPECT_EQ(prof.d2h().count, 2u);  // packed best + winner row
  EXPECT_EQ(prof.d2h().bytes, 8u + 10 * sizeof(JobId));
}

TEST(ParallelSa, DeviceSecondsGrowWithGenerations) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.5, 311);
  sim::Device d1;
  sim::Device d2;
  const GpuRunResult r1 =
      RunParallelSa(d1, instance, SmallParams(16, 16, 50));
  const GpuRunResult r2 =
      RunParallelSa(d2, instance, SmallParams(16, 16, 200));
  EXPECT_GT(r2.device_seconds, r1.device_seconds);
  EXPECT_GT(r1.device_seconds, 0.0);
}

TEST(ParallelSa, RejectsOversizedPerturbation) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 312);
  sim::Device gpu;
  ParallelSaParams params = SmallParams();
  params.pert = 64;
  EXPECT_THROW(RunParallelSa(gpu, instance, params),
               std::invalid_argument);
}

TEST(ParallelSa, RejectsInvalidLaunchGeometry) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 313);
  sim::Device gpu;
  ParallelSaParams params = SmallParams();
  params.config.block_size = 4096;  // beyond device limit
  params.config.blocks = 1;
  EXPECT_THROW(RunParallelSa(gpu, instance, params), sim::GpuError);
}

TEST(ParallelSa, TreeReductionMatchesAtomicReduction) {
  // Both reduction kernels must find the same packed best — including on
  // a non-power-of-two block size, which exercises the tree's guarded
  // folding.
  const Instance instance = cdd::testing::RandomCdd(18, 0.6, 315);
  for (const std::uint32_t block : {16u, 24u}) {
    sim::Device d_atomic;
    sim::Device d_tree;
    ParallelSaParams params = SmallParams(48, block, 120);
    params.reduction = detail::ReductionKind::kAtomic;
    const GpuRunResult a = RunParallelSa(d_atomic, instance, params);
    params.reduction = detail::ReductionKind::kTree;
    const GpuRunResult t = RunParallelSa(d_tree, instance, params);
    EXPECT_EQ(a.best_cost, t.best_cost) << "block=" << block;
    EXPECT_EQ(a.best, t.best) << "block=" << block;
  }
}

TEST(ParallelSa, PaperGeometryRunsOnGT560M) {
  // 4 blocks x 192 threads on a small instance, few generations.
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 314);
  sim::Device gpu(sim::GeForceGT560M());
  ParallelSaParams params;
  params.config = LaunchConfig{};  // the paper's 4 x 192
  params.budget.iterations = 5;
  params.temp_samples = 100;
  const GpuRunResult result = RunParallelSa(gpu, instance, params);
  EXPECT_LT(result.best_cost, kInfiniteCost);
  EXPECT_EQ(result.evaluations, 768u * 6);
}

}  // namespace
}  // namespace cdd::par
