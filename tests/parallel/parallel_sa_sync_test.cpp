/// Synchronous parallel SA tests, including the diversity-collapse
/// behaviour that made the paper prefer the asynchronous variant.

#include "parallel/parallel_sa_sync.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/exact.hpp"
#include "meta/objective.hpp"
#include "parallel/parallel_sa.hpp"

namespace cdd::par {
namespace {

ParallelSaSyncParams SmallParams(std::uint32_t levels = 30,
                                 std::uint32_t chain = 5) {
  ParallelSaSyncParams p;
  p.config = LaunchConfig::ForEnsemble(32, 16);
  p.budget.iterations = levels;
  p.chain_length = chain;
  p.temp_samples = 200;
  p.budget.seed = 31;
  return p;
}

TEST(ParallelSaSync, FindsOptimumOnTinyInstance) {
  const Instance instance = cdd::testing::RandomCdd(6, 0.5, 501);
  const Cost optimum = BruteForceCdd(instance).cost;
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelSaSync(gpu, instance, SmallParams(40, 8));
  EXPECT_EQ(result.best_cost, optimum);
}

TEST(ParallelSaSync, BestCostMatchesReportedSequence) {
  const Instance instance = cdd::testing::RandomCdd(20, 0.6, 502);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  sim::Device gpu;
  const GpuRunResult result =
      RunParallelSaSync(gpu, instance, SmallParams());
  EXPECT_EQ(objective(result.best), result.best_cost);
}

TEST(ParallelSaSync, DeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.5, 503);
  sim::Device a;
  sim::Device b;
  EXPECT_EQ(RunParallelSaSync(a, instance, SmallParams()).best_cost,
            RunParallelSaSync(b, instance, SmallParams()).best_cost);
}

TEST(ParallelSaSync, DiversityCollapsesAfterBroadcast) {
  // The paper's reason for rejecting synchronous SA: every level restarts
  // all chains from the same state.  The diversity metric is measured just
  // before the broadcast; at low temperatures chains barely move away from
  // the shared state, so late-level diversity must be far below the random
  // initial spread (~n-ish positions differing).
  const Instance instance = cdd::testing::RandomCdd(40, 0.6, 504);
  sim::Device gpu;
  ParallelSaSyncParams params = SmallParams(40, 3);
  params.record_diversity = true;
  const GpuRunResult result = RunParallelSaSync(gpu, instance, params);
  ASSERT_EQ(result.diversity.size(), 40u);
  // Within a few levels the ensemble is herded together: mean distance to
  // the broadcast state stays bounded by what 3 perturbations of size 4
  // can undo (<= 12 positions), while random sequences of n=40 differ in
  // ~39 positions.
  EXPECT_LE(result.diversity.back(), 13.0);
}

TEST(ParallelSaSync, SyncPaysCommunicationOverheadPerLevel) {
  // Ferreiro et al.'s warning the paper repeats: "the exchange of the
  // states and results can be very intensive in terms of the runtime".
  // At a matched evaluation budget, the synchronous variant launches extra
  // reduction/select/broadcast kernels and a per-level D2H read, so its
  // modeled device time per evaluation must exceed the asynchronous one.
  // (Solution quality is NOT asserted here: in this reproduction the
  // elitist broadcast often *helps* quality at bench scales — recorded as
  // a deviation from the paper's premature-convergence claim in
  // EXPERIMENTS.md; the mechanism the paper describes, diversity collapse,
  // is asserted above.)
  const Instance instance = cdd::testing::RandomCdd(30, 0.6, 505);
  sim::Device d_async;
  sim::Device d_sync;

  ParallelSaParams async_params;
  async_params.config = LaunchConfig::ForEnsemble(32, 16);
  async_params.budget.iterations = 150;
  async_params.temp_samples = 200;
  async_params.budget.seed = 31;

  ParallelSaSyncParams sync_params = SmallParams(150, 1);  // 150 evals

  const GpuRunResult ra = RunParallelSa(d_async, instance, async_params);
  const GpuRunResult rs = RunParallelSaSync(d_sync, instance, sync_params);
  ASSERT_EQ(ra.evaluations, rs.evaluations);
  EXPECT_GT(rs.device_seconds, ra.device_seconds);
  // And the sync run performs far more D2H reads (one per level).
  EXPECT_GT(d_sync.profiler().d2h().count,
            d_async.profiler().d2h().count + 100);
}

}  // namespace
}  // namespace cdd::par
