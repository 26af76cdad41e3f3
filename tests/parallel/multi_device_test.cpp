/// Multi-device ensemble tests.

#include "parallel/multi_device.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "meta/objective.hpp"

namespace cdd::par {
namespace {

ParallelSaParams SmallParams() {
  ParallelSaParams p;
  p.config = LaunchConfig::ForEnsemble(16, 16);
  p.budget.iterations = 120;
  p.temp_samples = 100;
  p.budget.seed = 51;
  return p;
}

TEST(MultiDevice, SingleDeviceEqualsPlainRun) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.5, 801);
  sim::Device solo;
  const GpuRunResult plain =
      RunParallelSa(solo, instance, SmallParams());

  sim::Device d0;
  sim::Device* fleet[] = {&d0};
  const MultiDeviceResult multi =
      RunParallelSaMultiDevice(fleet, instance, SmallParams());
  EXPECT_EQ(multi.best.best_cost, plain.best_cost);
  EXPECT_EQ(multi.best.best, plain.best);
  EXPECT_DOUBLE_EQ(multi.fleet_seconds, plain.device_seconds);
  EXPECT_EQ(multi.winning_device, 0u);
}

TEST(MultiDevice, FleetQualityMonotoneInSize) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 802);
  sim::Device a1;
  sim::Device* one[] = {&a1};
  const Cost c1 =
      RunParallelSaMultiDevice(one, instance, SmallParams())
          .best.best_cost;

  sim::Device b1, b2, b3;
  sim::Device* three[] = {&b1, &b2, &b3};
  const MultiDeviceResult m3 =
      RunParallelSaMultiDevice(three, instance, SmallParams());
  EXPECT_LE(m3.best.best_cost, c1);  // device 0 identical, 1-2 extra
}

TEST(MultiDevice, FleetTimeIsMaxNotSum) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.5, 803);
  sim::Device d0, d1;
  sim::Device* fleet[] = {&d0, &d1};
  const MultiDeviceResult result =
      RunParallelSaMultiDevice(fleet, instance, SmallParams());
  EXPECT_LT(result.fleet_seconds, result.total_device_seconds);
  EXPECT_NEAR(result.total_device_seconds, 2.0 * result.fleet_seconds,
              0.2 * result.fleet_seconds);
  EXPECT_EQ(result.best.evaluations, 2u * 16 * 121);
}

TEST(MultiDevice, ReportedCostIsAchievable) {
  const Instance instance = cdd::testing::RandomUcddcp(12, 1.1, 804);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  sim::Device d0, d1;
  sim::Device* fleet[] = {&d0, &d1};
  const MultiDeviceResult result =
      RunParallelSaMultiDevice(fleet, instance, SmallParams());
  EXPECT_EQ(objective(result.best.best), result.best.best_cost);
  EXPECT_LT(result.winning_device, 2u);
}

TEST(MultiDevice, EmptyAndNullFleetsRejected) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.5, 805);
  EXPECT_THROW(RunParallelSaMultiDevice({}, instance, SmallParams()),
               std::invalid_argument);
  sim::Device* fleet[] = {nullptr};
  EXPECT_THROW(RunParallelSaMultiDevice(fleet, instance, SmallParams()),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdd::par
