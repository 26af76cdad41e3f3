/// Asynchronous parallel DPSO tests.

#include "parallel/parallel_dpso.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "meta/objective.hpp"

namespace cdd::par {
namespace {

ParallelDpsoParams SmallParams(std::uint32_t ensemble = 32,
                               std::uint32_t block = 16,
                               std::uint64_t gens = 150) {
  ParallelDpsoParams p;
  p.config = LaunchConfig::ForEnsemble(ensemble, block);
  p.budget.iterations = gens;
  p.budget.seed = 21;
  return p;
}

TEST(ParallelDpso, FindsOptimumOnTinyCddInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 401);
  const Cost optimum = BruteForceCdd(instance).cost;
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelDpso(gpu, instance, SmallParams(32, 16, 200));
  EXPECT_EQ(result.best_cost, optimum);
  EXPECT_NO_THROW(ValidateSequence(result.best, 6));
}

TEST(ParallelDpso, WorksOnUcddcp) {
  const Instance instance = cdd::testing::RandomUcddcp(7, 1.1, 402);
  const Cost optimum = BruteForceUcddcp(instance).cost;
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelDpso(gpu, instance, SmallParams(32, 16, 200));
  EXPECT_GE(result.best_cost, optimum);
  EXPECT_LE(result.best_cost, optimum + std::max<Cost>(optimum / 10, 5));
}

TEST(ParallelDpso, BestCostMatchesReportedSequence) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 403);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  sim::Device gpu;
  const GpuRunResult result = RunParallelDpso(gpu, instance, SmallParams());
  EXPECT_EQ(objective(result.best), result.best_cost);
}

TEST(ParallelDpso, DeterministicPerSeedAndWorkerCount) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.4, 404);
  sim::Device a;
  a.set_worker_threads(1);
  sim::Device b;
  b.set_worker_threads(4);
  const GpuRunResult ra = RunParallelDpso(a, instance, SmallParams());
  const GpuRunResult rb = RunParallelDpso(b, instance, SmallParams());
  EXPECT_EQ(ra.best_cost, rb.best_cost);
  EXPECT_EQ(ra.best, rb.best);
}

TEST(ParallelDpso, SwarmBestIsMonotonePerGeneration) {
  const Instance instance = cdd::testing::RandomCdd(18, 0.6, 405);
  sim::Device gpu;
  ParallelDpsoParams params = SmallParams(16, 16, 100);
  params.budget.trajectory_stride = 5;
  const GpuRunResult result = RunParallelDpso(gpu, instance, params);
  ASSERT_EQ(result.trajectory.size(), 20u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(ParallelDpso, PipelineKernelsAreLaunched) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 406);
  sim::Device gpu;
  const std::uint64_t gens = 20;
  RunParallelDpso(gpu, instance, SmallParams(16, 16, gens));
  const auto& prof = gpu.profiler();
  ASSERT_NE(prof.Find("dpso_update"), nullptr);
  EXPECT_EQ(prof.Find("dpso_update")->launches, gens);
  ASSERT_NE(prof.Find("dpso_fitness"), nullptr);
  EXPECT_EQ(prof.Find("dpso_fitness")->launches, gens + 1);
  ASSERT_NE(prof.Find("dpso_gbest_publish"), nullptr);
  EXPECT_EQ(prof.Find("dpso_gbest_publish")->launches, gens + 1);
}

TEST(ParallelDpso, OperatorProbabilitiesZeroFreezeSwarm) {
  // With w = c1 = c2 = 0 positions never change: the best equals the best
  // initial particle, and stays constant over generations.
  const Instance instance = cdd::testing::RandomCdd(12, 0.5, 407);
  sim::Device d1;
  sim::Device d2;
  ParallelDpsoParams frozen = SmallParams(16, 16, 1);
  frozen.w = frozen.c1 = frozen.c2 = 0.0;
  ParallelDpsoParams longer = frozen;
  longer.budget.iterations = 50;
  const GpuRunResult r1 = RunParallelDpso(d1, instance, frozen);
  const GpuRunResult r2 = RunParallelDpso(d2, instance, longer);
  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best, r2.best);
}

}  // namespace
}  // namespace cdd::par
