/// Sweep configuration + reference-computation tests.

#include "benchutil/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/test_instances.hpp"
#include "core/exact.hpp"

namespace cdd::benchutil {
namespace {

Args Make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Sweep, DefaultsAreReduced) {
  const Sweep sweep = Sweep::FromArgs(Make({"prog"}));
  EXPECT_LE(sweep.sizes.back(), 200u);
  EXPECT_LT(sweep.ensemble, 768u);
}

TEST(Sweep, PaperFlagSelectsSectionVIII) {
  const Sweep sweep = Sweep::FromArgs(Make({"prog", "--paper"}));
  EXPECT_EQ(sweep.sizes.size(), 7u);
  EXPECT_EQ(sweep.sizes.back(), 1000u);
  EXPECT_EQ(sweep.instances, 10u);
  EXPECT_EQ(sweep.h.size(), 4u);
  EXPECT_EQ(sweep.ensemble, 768u);
  EXPECT_EQ(sweep.block_size, 192u);
  EXPECT_EQ(sweep.gens_low, 1000u);
  EXPECT_EQ(sweep.gens_high, 5000u);
}

TEST(Sweep, FlagsOverrideEvenWithPaper) {
  const Sweep sweep = Sweep::FromArgs(
      Make({"prog", "--paper", "--sizes", "10,20", "--ensemble", "64"}));
  EXPECT_EQ(sweep.sizes, (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(sweep.ensemble, 64u);
  EXPECT_EQ(sweep.gens_high, 5000u);  // untouched paper value
}

TEST(Sweep, DescribeMentionsKeyParameters) {
  const Sweep sweep;
  const std::string desc = sweep.Describe();
  EXPECT_NE(desc.find("ensemble="), std::string::npos);
  EXPECT_NE(desc.find("seed="), std::string::npos);
}

TEST(Reference, ExactForSmallInstances) {
  // n <= 10 uses exhaustive enumeration: must equal the brute force.
  const Instance instance = cdd::testing::RandomCdd(7, 0.5, 901);
  Sweep sweep;
  sweep.ref_iterations = 10;  // irrelevant for the exact path
  const Cost reference = ComputeReferenceCost(instance, sweep, 1);
  EXPECT_EQ(reference, BruteForceCdd(instance).cost);
}

TEST(Reference, HeuristicForLargerInstancesIsAchievable) {
  const Instance instance = cdd::testing::RandomCdd(25, 0.6, 902);
  Sweep sweep;
  sweep.ref_iterations = 3000;
  sweep.ref_restarts = 2;
  const Cost reference = ComputeReferenceCost(instance, sweep, 1);
  EXPECT_GT(reference, 0);
  EXPECT_LT(reference, kInfiniteCost);
  // Deterministic: same sweep + salt => same value.
  EXPECT_EQ(reference, ComputeReferenceCost(instance, sweep, 1));
  // Different salt may differ, but never by pathological amounts.
  const Cost other = ComputeReferenceCost(instance, sweep, 2);
  EXPECT_LT(std::abs(static_cast<double>(other - reference)),
            0.5 * static_cast<double>(reference) + 1);
}

TEST(Calibration, SecondsPerEvalIsPositiveAndScalesWithN) {
  const Instance small = cdd::testing::RandomCdd(10, 0.5, 903);
  const Instance large = cdd::testing::RandomCdd(400, 0.5, 904);
  // The fastest of five calls per size: a single timing of a few
  // milliseconds can land on a preempted slice.
  const auto fastest = [](const Instance& instance) {
    const meta::Objective objective = meta::Objective::ForInstance(instance);
    double best = MeasureSecondsPerEval(objective, 4000, 1);
    for (int rep = 1; rep < 5; ++rep) {
      best = std::min(best, MeasureSecondsPerEval(objective, 4000, 1));
    }
    return best;
  };
  const double t_small = fastest(small);
  const double t_large = fastest(large);
  EXPECT_GT(t_small, 0.0);
  EXPECT_GT(t_large, 2.0 * t_small);  // O(n) evaluator: 40x the size
}

}  // namespace
}  // namespace cdd::benchutil
