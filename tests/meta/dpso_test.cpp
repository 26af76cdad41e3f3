/// Serial DPSO and crossover-operator tests (Algorithm 2, Pan et al.).

#include "meta/dpso.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "meta/ops.hpp"
#include "rng/philox.hpp"

namespace cdd::meta {
namespace {

/// The crossovers work in place: the child overwrites a copy of p1.
Sequence OnePoint(const Sequence& p1, const Sequence& p2, std::uint32_t cut) {
  Sequence child = p1;
  std::vector<std::uint8_t> used(p1.size());
  OnePointCrossover(std::span<JobId>(child), p2, cut,
                    std::span<std::uint8_t>(used));
  return child;
}

Sequence TwoPoint(const Sequence& p1, const Sequence& p2, std::uint32_t a,
                  std::uint32_t b) {
  Sequence child = p1;
  std::vector<std::uint8_t> used(p1.size());
  TwoPointCrossover(std::span<JobId>(child), p2, a, b,
                    std::span<std::uint8_t>(used));
  return child;
}

TEST(Crossover, OnePointKeepsPrefixAndFillsFromDonor) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  // Prefix {0,1} from p1; remaining jobs {4,3,2} in p2 order.
  EXPECT_EQ(OnePoint(p1, p2, /*cut=*/2), (Sequence{0, 1, 4, 3, 2}));
}

TEST(Crossover, OnePointEdgeCuts) {
  const Sequence p1{0, 1, 2};
  const Sequence p2{2, 1, 0};
  EXPECT_EQ(OnePoint(p1, p2, 0), p2);  // nothing from p1
  EXPECT_EQ(OnePoint(p1, p2, 3), p1);  // everything from p1
}

TEST(Crossover, TwoPointKeepsSegmentInPlace) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  // Segment {1,2} stays at positions 1..2; {4,3,0} fill 0,3,4 in p2 order.
  EXPECT_EQ(TwoPoint(p1, p2, /*a=*/1, /*b=*/3), (Sequence{4, 1, 2, 3, 0}));
}

TEST(Crossover, TwoPointEdgeSegments) {
  const Sequence p1{0, 1, 2};
  const Sequence p2{2, 0, 1};
  EXPECT_EQ(TwoPoint(p1, p2, 0, 0), p2);  // empty segment
  EXPECT_EQ(TwoPoint(p1, p2, 0, 3), p1);  // full segment
}

/// Property: both crossovers always produce valid permutations, whatever
/// the mark table held before the call.
class CrossoverSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CrossoverSweep, ChildrenAreAlwaysPermutations) {
  const std::uint32_t n = GetParam();
  rng::Philox4x32 rng(n * 7919);
  std::vector<std::uint8_t> used(n, 1);
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence p1 = RandomSequence(n, rng);
    const Sequence p2 = RandomSequence(n, rng);
    Sequence child = p1;
    OnePointCrossover(std::span<JobId>(child), p2, rng,
                      std::span<std::uint8_t>(used));
    ASSERT_TRUE(IsPermutation(child)) << "one-point n=" << n;
    child = p1;
    TwoPointCrossover(std::span<JobId>(child), p2, rng,
                      std::span<std::uint8_t>(used));
    ASSERT_TRUE(IsPermutation(child)) << "two-point n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrossoverSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 20u, 77u));

TEST(SerialDpso, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 17);
  const Cost optimum = BruteForceCdd(instance).cost;
  const Objective objective = Objective::ForInstance(instance);
  DpsoParams params;
  params.budget.iterations = 200;
  params.swarm = 24;
  params.budget.seed = 5;
  const RunResult result = RunSerialDpso(objective, params);
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(SerialDpso, DeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.6, 23);
  const Objective objective = Objective::ForInstance(instance);
  DpsoParams params;
  params.budget.iterations = 100;
  params.swarm = 16;
  params.budget.seed = 9;
  EXPECT_EQ(RunSerialDpso(objective, params).best_cost,
            RunSerialDpso(objective, params).best_cost);
}

TEST(SerialDpso, EvaluationAccounting) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 2);
  const Objective objective = Objective::ForInstance(instance);
  DpsoParams params;
  params.budget.iterations = 10;
  params.swarm = 8;
  const RunResult result = RunSerialDpso(objective, params);
  EXPECT_EQ(result.evaluations, 8u + 8u * 10u);
}

TEST(SerialDpso, BestIsValidAndAchievesReportedCost) {
  const Instance instance = cdd::testing::RandomUcddcp(12, 1.1, 4);
  const Objective objective = Objective::ForInstance(instance);
  DpsoParams params;
  params.budget.iterations = 50;
  params.swarm = 16;
  const RunResult result = RunSerialDpso(objective, params);
  EXPECT_NO_THROW(ValidateSequence(result.best, 12));
  EXPECT_EQ(objective(result.best), result.best_cost);
}

}  // namespace
}  // namespace cdd::meta
