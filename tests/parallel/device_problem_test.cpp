/// DeviceProblem upload tests and fitness-kernel memory-policy
/// equivalence.

#include "parallel/device_problem.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/eval_cdd.hpp"
#include "parallel/detail.hpp"
#include "parallel/parallel_sa.hpp"

namespace cdd::par {
namespace {

TEST(DeviceProblem, UploadsStructureOfArrays) {
  const Instance instance = cdd::testing::PaperExampleUcddcp();
  sim::Device gpu;
  const DeviceProblem problem(gpu, instance);
  EXPECT_EQ(problem.n(), 5);
  EXPECT_EQ(problem.due_date(), 22);
  EXPECT_TRUE(problem.controllable());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    EXPECT_EQ(problem.proc()[i], instance.job(i).proc);
    EXPECT_EQ(problem.min_proc()[i], instance.job(i).min_proc);
    EXPECT_EQ(problem.alpha()[i], instance.job(i).early);
    EXPECT_EQ(problem.beta()[i], instance.job(i).tardy);
    EXPECT_EQ(problem.gamma()[i], instance.job(i).compress);
  }
  // 5 SoA uploads + 2 constant symbols (d, n) hit the transfer ledger.
  EXPECT_GE(gpu.profiler().h2d().count, 6u);
}

TEST(DeviceProblem, SharedBytesAndCostBound) {
  const Instance instance = cdd::testing::RandomCdd(100, 0.6, 1001);
  sim::Device gpu;
  const DeviceProblem problem(gpu, instance);
  EXPECT_EQ(problem.shared_bytes(), 2 * 100 * sizeof(Cost));
  // The bound must dominate any real sequence cost.
  const CddEvaluator eval(instance);
  EXPECT_GT(problem.cost_upper_bound(),
            eval.Evaluate(IdentitySequence(100)));
}

TEST(DeviceProblem, RejectsRestrictedControllable) {
  const Instance base = cdd::testing::RandomUcddcp(8, 1.0, 1002);
  const Instance restricted =
      Instance(Problem::kCddcp, base.due_date() / 2, base.jobs());
  sim::Device gpu;
  EXPECT_THROW(DeviceProblem(gpu, restricted), std::invalid_argument);
}

TEST(DeviceProblem, CddInstanceIsNotControllable) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 1003);
  sim::Device gpu;
  const DeviceProblem problem(gpu, instance);
  EXPECT_FALSE(problem.controllable());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    EXPECT_EQ(problem.gamma()[i], 0);
  }
}

TEST(FitnessMemoryPolicy, AllThreePathsComputeIdenticalCosts) {
  // Shared staging, texture fetches and plain global reads differ only in
  // modeled time; the solver outcome must be bit-identical.
  const Instance instance = cdd::testing::RandomUcddcp(20, 1.1, 1004);
  Cost costs[3];
  double times[3];
  const detail::PenaltyMemory kinds[3] = {detail::PenaltyMemory::kShared,
                                          detail::PenaltyMemory::kTexture,
                                          detail::PenaltyMemory::kGlobal};
  for (int k = 0; k < 3; ++k) {
    sim::Device gpu;
    ParallelSaParams params;
    params.config = LaunchConfig::ForEnsemble(32, 16);
    params.budget.iterations = 80;
    params.temp_samples = 100;
    params.penalty_memory = kinds[k];
    const GpuRunResult result = RunParallelSa(gpu, instance, params);
    costs[k] = result.best_cost;
    times[k] = result.device_seconds;
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
  EXPECT_LT(times[0], times[2]);  // shared cheaper than global
  EXPECT_LT(times[1], times[2]);  // texture cheaper than global
}

TEST(FitnessMemoryPolicy, SharedFallsBackForOversizedInstances) {
  // 2*n*8 bytes beyond the 48 KiB shared limit: the kernel must fall back
  // to global reads and still be correct.
  const Instance instance = cdd::testing::RandomCdd(4000, 0.6, 1005);
  sim::Device gpu;
  ParallelSaParams params;
  params.config = LaunchConfig::ForEnsemble(8, 8);
  params.budget.iterations = 3;
  params.temp_samples = 20;
  const GpuRunResult result = RunParallelSa(gpu, instance, params);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  EXPECT_EQ(objective(result.best), result.best_cost);
}

}  // namespace
}  // namespace cdd::par
