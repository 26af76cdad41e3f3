/// Serial Simulated Annealing tests (Algorithm 1).

#include "meta/sa.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "core/stop_token.hpp"
#include "meta/temperature.hpp"

namespace cdd::meta {
namespace {

TEST(SerialSa, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 11);
  const Cost optimum = BruteForceCdd(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 4000;
  params.temp_samples = 500;
  params.budget.seed = 3;
  const RunResult result = RunSerialSa(objective, params);
  EXPECT_EQ(result.best_cost, optimum);
  EXPECT_NO_THROW(ValidateSequence(result.best, 6));
}

TEST(SerialSa, DeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 22);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 500;
  params.temp_samples = 100;
  params.budget.seed = 77;
  const RunResult a = RunSerialSa(objective, params);
  const RunResult b = RunSerialSa(objective, params);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best, b.best);
  params.budget.seed = 78;
  const RunResult c = RunSerialSa(objective, params);
  // Different seeds explore differently (almost surely different result
  // sequence; allow equal cost).
  EXPECT_TRUE(c.best != a.best || c.best_cost == a.best_cost);
}

TEST(SerialSa, ReportsEvaluationsAndTime) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.4, 5);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 300;
  params.temp_samples = 100;
  const RunResult result = RunSerialSa(objective, params);
  EXPECT_EQ(result.evaluations, 301u);  // initial + one per iteration
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(SerialSa, TrajectoryIsMonotoneNonIncreasing) {
  const Instance instance = cdd::testing::RandomCdd(30, 0.6, 8);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 1000;
  params.temp_samples = 200;
  params.budget.trajectory_stride = 50;
  const RunResult result = RunSerialSa(objective, params);
  ASSERT_EQ(result.trajectory.size(), 20u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(SerialSa, InitialSequenceSeedsTheChain) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 99);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 0;  // no moves: the result is the initial state
  params.initial_temperature = 1.0;
  const Sequence init = cdd::testing::RandomSeq(10, 123);
  const RunResult result = RunSerialSa(objective, params, init);
  EXPECT_EQ(result.best, init);
  EXPECT_EQ(result.best_cost, objective(init));
}

TEST(SerialSa, WorksOnUcddcp) {
  const Instance instance = cdd::testing::RandomUcddcp(8, 1.2, 41);
  const Cost optimum = BruteForceUcddcp(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 6000;
  params.temp_samples = 500;
  const RunResult result = RunSerialSa(objective, params);
  EXPECT_GE(result.best_cost, optimum);
  // Near-optimality on an 8-job instance with 6000 iterations.
  EXPECT_LE(result.best_cost, optimum + std::max<Cost>(optimum / 10, 5));
}

TEST(SerialSa, StopTokenTruncatesTheRun) {
  const Instance instance = cdd::testing::RandomCdd(30, 0.6, 71);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 100'000'000;  // far beyond what we let it run
  params.temp_samples = 100;

  StopSource source;
  source.RequestStop();  // already stopped: the loop must bail at its
                         // first poll, not after the full budget
  params.budget.stop = source.token();
  const RunResult result = RunSerialSa(objective, params);
  EXPECT_TRUE(result.stopped);
  EXPECT_LT(result.evaluations, params.budget.iterations);
  // Even a truncated run returns a coherent best-so-far.
  EXPECT_NO_THROW(ValidateSequence(result.best, 30));
  EXPECT_EQ(result.best_cost, objective(result.best));
}

TEST(SerialSa, DeadlineStopsALongRunEarly) {
  const Instance instance = cdd::testing::RandomCdd(40, 0.6, 72);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 500'000'000;  // would run for minutes
  params.temp_samples = 100;

  StopSource source(StopSource::Clock::now() +
                    std::chrono::milliseconds(50));
  params.budget.stop = source.token();
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = RunSerialSa(objective, params);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(result.stopped);
  EXPECT_LT(result.evaluations, params.budget.iterations);
  // The deadline, not the budget, ended the run (generous CI margin).
  EXPECT_LT(wall_ms, 5000.0);
}

TEST(SerialSa, UnstoppedRunIsBitIdenticalWithAndWithoutToken) {
  // Polling must never consume randomness: attaching a token that never
  // fires cannot change the search trajectory in any way.
  const Instance instance = cdd::testing::RandomCdd(20, 0.5, 73);
  const Objective objective = Objective::ForInstance(instance);
  SaParams params;
  params.budget.iterations = 800;
  params.temp_samples = 100;
  params.budget.seed = 5;
  const RunResult bare = RunSerialSa(objective, params);

  StopSource source;  // never stopped, no deadline
  params.budget.stop = source.token();
  const RunResult tokened = RunSerialSa(objective, params);
  EXPECT_FALSE(tokened.stopped);
  EXPECT_EQ(bare.best, tokened.best);
  EXPECT_EQ(bare.best_cost, tokened.best_cost);
  EXPECT_EQ(bare.evaluations, tokened.evaluations);
}

class FlatEvaluator : public BatchEvaluator {
 public:
  Cost Evaluate(std::span<const JobId>) const override { return Cost{42}; }
};

TEST(InitialTemperature, MatchesFitnessSpread) {
  // Constant objective => spread 0 => clamped to 1.
  const Objective flat(6, std::make_shared<FlatEvaluator>());
  EXPECT_DOUBLE_EQ(InitialTemperature(flat, 500, 1), 1.0);

  // Non-trivial instance: positive spread, deterministic per seed.
  const Instance instance = cdd::testing::RandomCdd(12, 0.5, 31);
  const Objective objective = Objective::ForInstance(instance);
  const double t1 = InitialTemperature(objective, 2000, 9);
  const double t2 = InitialTemperature(objective, 2000, 9);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_GT(t1, 1.0);
}

TEST(CoolingSchedule, FamiliesBehave) {
  const CoolingSchedule expo = CoolingSchedule::Exponential(100.0, 0.88);
  EXPECT_DOUBLE_EQ(expo(0), 100.0);
  EXPECT_NEAR(expo(1), 88.0, 1e-9);
  EXPECT_LT(expo(100), 100.0 * 1e-5);

  const CoolingSchedule lin = CoolingSchedule::Linear(100.0, 10);
  EXPECT_DOUBLE_EQ(lin(0), 100.0);
  EXPECT_DOUBLE_EQ(lin(5), 50.0);
  EXPECT_DOUBLE_EQ(lin(10), 0.0);

  const CoolingSchedule log = CoolingSchedule::Logarithmic(100.0);
  EXPECT_GT(log(0), log(100));
  EXPECT_GT(log(100), 0.0);
}

}  // namespace
}  // namespace cdd::meta
