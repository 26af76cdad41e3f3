/// Host-thread ensemble SA tests.

#include "meta/host_ensemble.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"

namespace cdd::meta {
namespace {

TEST(HostEnsemble, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 601);
  const Cost optimum = BruteForceCdd(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  HostEnsembleParams params;
  params.chains = 16;
  params.chain.budget.iterations = 400;
  params.chain.temp_samples = 200;
  const RunResult result = RunHostEnsembleSa(objective, params);
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(HostEnsemble, ThreadCountInvariant) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 602);
  const Objective objective = Objective::ForInstance(instance);
  HostEnsembleParams params;
  params.chains = 12;
  params.chain.budget.iterations = 300;
  params.chain.temp_samples = 200;
  params.threads = 1;
  const RunResult serial = RunHostEnsembleSa(objective, params);
  params.threads = 4;
  const RunResult parallel = RunHostEnsembleSa(objective, params);
  EXPECT_EQ(serial.best_cost, parallel.best_cost);
  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST(HostEnsemble, ThreadCountInvariantAcrossWideSweep) {
  // Regression guard for the serve layer: SolverService clamps every
  // "host" run to threads=1 and relies on this invariance to do so
  // without changing results.  Chain c always runs seed+c, so any thread
  // count — including more threads than chains, and odd counts that
  // split the chains unevenly — must produce the identical result.
  const Instance instance = cdd::testing::RandomCdd(25, 0.4, 605);
  const Objective objective = Objective::ForInstance(instance);
  HostEnsembleParams params;
  params.chains = 10;
  params.chain.budget.iterations = 250;
  params.chain.temp_samples = 150;

  params.threads = 1;
  const RunResult baseline = RunHostEnsembleSa(objective, params);
  for (const unsigned threads : {2u, 3u, 4u, 7u, 10u, 16u}) {
    params.threads = threads;
    const RunResult result = RunHostEnsembleSa(objective, params);
    EXPECT_EQ(result.best, baseline.best) << "threads=" << threads;
    EXPECT_EQ(result.best_cost, baseline.best_cost)
        << "threads=" << threads;
    EXPECT_EQ(result.evaluations, baseline.evaluations)
        << "threads=" << threads;
  }
}

TEST(HostEnsemble, MoreChainsNeverHurt) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.5, 603);
  const Objective objective = Objective::ForInstance(instance);
  HostEnsembleParams params;
  params.chain.budget.iterations = 200;
  params.chain.temp_samples = 200;
  params.chains = 4;
  const Cost few = RunHostEnsembleSa(objective, params).best_cost;
  params.chains = 32;  // superset of the first 4 chains' seeds
  const Cost many = RunHostEnsembleSa(objective, params).best_cost;
  EXPECT_LE(many, few);
}

TEST(HostEnsemble, EvaluationAccounting) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 604);
  const Objective objective = Objective::ForInstance(instance);
  HostEnsembleParams params;
  params.chains = 8;
  params.chain.budget.iterations = 100;
  params.chain.temp_samples = 100;
  const RunResult result = RunHostEnsembleSa(objective, params);
  EXPECT_EQ(result.evaluations, 8u * 101u);
  EXPECT_NO_THROW(ValidateSequence(result.best, 10));
}

}  // namespace
}  // namespace cdd::meta
