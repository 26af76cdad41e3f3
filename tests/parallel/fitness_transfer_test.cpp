/// LaunchFitness transfer accounting: the view's backend tag decides the
/// modeled staging cost (pageable host rows pay H2D/D2H, device-resident
/// rows are zero-copy) while the computed costs stay bit-identical on
/// both backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "core/pool_allocator.hpp"
#include "core/sequence.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/launch_config.hpp"
#include "rng/philox.hpp"

namespace cdd::par {
namespace {

constexpr std::int32_t kJobs = 16;
constexpr std::uint32_t kRows = 8;

struct FitnessRun {
  std::vector<Cost> costs;
  double sim_seconds = 0.0;
  std::uint64_t h2d = 0;  ///< transfers fired by the launch itself
  std::uint64_t d2h = 0;
};

FitnessRun RunFitness(core::PoolBackend backend) {
  const Instance instance = cdd::testing::RandomCdd(kJobs, 0.6, 42);
  sim::Device device;
  const DeviceProblem problem(device, instance);

  CandidatePool pool(kJobs, kRows, core::PoolAllocatorFor(backend));
  rng::Philox4x32 rng(/*seed=*/9, /*stream=*/0xf17ULL);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const Sequence seq = RandomSequence(kJobs, rng);
    pool.Append(seq);
  }

  const LaunchConfig config = LaunchConfig::ForEnsemble(kRows, kRows);
  device.ResetClock();  // isolate the launch from the problem upload
  const std::uint64_t h2d_before = device.profiler().h2d().count;
  const std::uint64_t d2h_before = device.profiler().d2h().count;
  detail::LaunchFitness(device, problem, config, pool.view(),
                        "fitness_transfer_test");

  FitnessRun run;
  run.costs.assign(pool.costs().begin(), pool.costs().end());
  run.sim_seconds = device.sim_time_s();
  run.h2d = device.profiler().h2d().count - h2d_before;
  run.d2h = device.profiler().d2h().count - d2h_before;
  return run;
}

TEST(FitnessTransfer, CostsAreBitIdenticalAcrossBackends) {
  const FitnessRun host = RunFitness(core::PoolBackend::kHost);
  ASSERT_EQ(host.costs.size(), kRows);
  EXPECT_EQ(RunFitness(core::PoolBackend::kDevice).costs, host.costs);
}

TEST(FitnessTransfer, HostViewsChargeStagingAndDeviceViewsDoNot) {
  const FitnessRun host = RunFitness(core::PoolBackend::kHost);
  const FitnessRun device = RunFitness(core::PoolBackend::kDevice);

  // Pageable host rows bounce to the device before the kernel and their
  // costs come back after it; device-resident rows are consumed in place,
  // so that launch costs exactly the kernel.
  EXPECT_EQ(host.h2d, 1u);
  EXPECT_EQ(host.d2h, 1u);
  EXPECT_EQ(device.h2d, 0u);
  EXPECT_EQ(device.d2h, 0u);
  EXPECT_GT(host.sim_seconds, device.sim_seconds);
}

}  // namespace
}  // namespace cdd::par
