/// Threshold Accepting and (mu+lambda)-ES baseline tests ([18]-style CPU
/// comparators).

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "meta/evostrategy.hpp"
#include "meta/threshold.hpp"

namespace cdd::meta {
namespace {

TEST(ThresholdAccepting, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.6, 61);
  const Cost optimum = BruteForceCdd(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  TaParams params;
  params.budget.iterations = 4000;
  params.temp_samples = 300;
  const RunResult result = RunThresholdAccepting(objective, params);
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(ThresholdAccepting, DeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(18, 0.4, 62);
  const Objective objective = Objective::ForInstance(instance);
  TaParams params;
  params.budget.iterations = 400;
  params.temp_samples = 100;
  params.budget.seed = 13;
  EXPECT_EQ(RunThresholdAccepting(objective, params).best_cost,
            RunThresholdAccepting(objective, params).best_cost);
}

TEST(ThresholdAccepting, AcceptsSidewaysButConverges) {
  // With a decaying threshold, late iterations accept only improvements —
  // so best-so-far equals the current state's cost at the end of a long
  // run.  We just assert the reported best is achievable.
  const Instance instance = cdd::testing::RandomUcddcp(10, 1.1, 63);
  const Objective objective = Objective::ForInstance(instance);
  TaParams params;
  params.budget.iterations = 1000;
  params.temp_samples = 200;
  const RunResult result = RunThresholdAccepting(objective, params);
  EXPECT_EQ(objective(result.best), result.best_cost);
}

TEST(EvolutionStrategy, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 64);
  const Cost optimum = BruteForceCdd(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  EsParams params;
  params.budget.iterations = 150;
  params.mu = 8;
  params.lambda = 24;
  const RunResult result = RunEvolutionStrategy(objective, params);
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(EvolutionStrategy, ElitismNeverRegresses) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 65);
  const Objective objective = Objective::ForInstance(instance);
  EsParams params;
  params.budget.iterations = 60;
  params.budget.trajectory_stride = 1;
  const RunResult result = RunEvolutionStrategy(objective, params);
  ASSERT_EQ(result.trajectory.size(), 60u);
  for (std::size_t g = 1; g < result.trajectory.size(); ++g) {
    EXPECT_LE(result.trajectory[g], result.trajectory[g - 1]);
  }
}

TEST(EvolutionStrategy, EvaluationAccounting) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 66);
  const Objective objective = Objective::ForInstance(instance);
  EsParams params;
  params.budget.iterations = 5;
  params.mu = 4;
  params.lambda = 12;
  const RunResult result = RunEvolutionStrategy(objective, params);
  EXPECT_EQ(result.evaluations, 4u + 5u * 12u);
}

}  // namespace
}  // namespace cdd::meta
