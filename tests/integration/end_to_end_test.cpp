/// Integration tests: the full two-layered pipeline across modules —
/// generator -> evaluators -> serial baselines -> parallel solvers ->
/// registry — exercised together the way the benches use them.

#include <gtest/gtest.h>

#include <sstream>

#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/exact.hpp"
#include "core/schedule.hpp"
#include "rng/philox.hpp"
#include "core/reference_eval.hpp"
#include "cudasim/device.hpp"
#include "lp/models.hpp"
#include "meta/host_ensemble.hpp"
#include "meta/sa.hpp"
#include "orlib/bestknown.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "orlib/schfile.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"

namespace cdd {
namespace {

TEST(EndToEnd, BenchmarkInstanceThroughEveryEvaluator) {
  // One generated benchmark instance, one sequence, five independent
  // implementations of "optimal cost of this sequence" — all must agree.
  const orlib::BiskupFeldmannGenerator gen;
  const Instance instance = gen.Cdd(12, 3, 0.6);
  cdd::rng::Philox4x32 generator(5, 6);
  const Sequence seq = RandomSequence(12, generator);

  const Cost fast = CddEvaluator(instance).Evaluate(seq);
  const Cost oracle = ReferenceCddCost(instance, seq);
  const Cost lp = lp::SolveSequenceLp(instance, seq);
  EXPECT_EQ(fast, oracle);
  EXPECT_EQ(fast, lp);

  const Instance ucddcp = gen.Ucddcp(12, 3);
  const Cost ufast = UcddcpEvaluator(ucddcp).Evaluate(seq);
  const Cost uoracle = ReferenceUcddcpCost(ucddcp, seq);
  const Cost ulp = lp::SolveSequenceLp(ucddcp, seq);
  EXPECT_EQ(ufast, uoracle);
  EXPECT_EQ(ufast, ulp);
}

TEST(EndToEnd, AllSolversAgreeOnTinyOptimum) {
  // Serial SA, host ensemble, parallel SA and parallel DPSO all reach the
  // brute-force optimum of a 7-job benchmark instance.
  const orlib::BiskupFeldmannGenerator gen;
  const Instance instance = gen.Cdd(7, 0, 0.4);
  const Cost optimum = BruteForceCdd(instance).cost;
  const meta::Objective objective = meta::Objective::ForInstance(instance);

  meta::SaParams sa;
  sa.budget.iterations = 5000;
  sa.temp_samples = 500;
  EXPECT_EQ(meta::RunSerialSa(objective, sa).best_cost, optimum);

  meta::HostEnsembleParams host;
  host.chains = 16;
  host.chain.budget.iterations = 500;
  host.chain.temp_samples = 200;
  EXPECT_EQ(meta::RunHostEnsembleSa(objective, host).best_cost, optimum);

  sim::Device gpu;
  par::ParallelSaParams psa;
  psa.config = par::LaunchConfig::ForEnsemble(32, 16);
  psa.budget.iterations = 400;
  psa.temp_samples = 200;
  EXPECT_EQ(par::RunParallelSa(gpu, instance, psa).best_cost, optimum);

  par::ParallelDpsoParams pdpso;
  pdpso.config = psa.config;
  pdpso.budget.iterations = 400;
  EXPECT_EQ(par::RunParallelDpso(gpu, instance, pdpso).best_cost, optimum);
}

TEST(EndToEnd, SchFileRoundTripSolvesIdentically) {
  // Writing a generated instance to the OR-library format and reading it
  // back must not change any solver outcome.
  const orlib::BiskupFeldmannGenerator gen;
  const std::vector<orlib::JobTable> tables{gen.JobData(15, 2)};
  std::stringstream file;
  orlib::WriteCddFile(file, tables);
  const auto parsed = orlib::ParseCddFile(file);
  const Instance direct = gen.Cdd(15, 2, 0.6);
  const Instance loaded = orlib::MakeCddInstance(parsed[0], 0.6);
  EXPECT_EQ(direct, loaded);

  sim::Device gpu;
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(16, 16);
  params.budget.iterations = 100;
  params.temp_samples = 200;
  const Cost a = par::RunParallelSa(gpu, direct, params).best_cost;
  const Cost b = par::RunParallelSa(gpu, loaded, params).best_cost;
  EXPECT_EQ(a, b);
}

TEST(EndToEnd, RegistryTracksImprovementsAcrossBudgets) {
  const orlib::BiskupFeldmannGenerator gen;
  const Instance instance = gen.Cdd(30, 1, 0.6);
  const std::string key = orlib::CddKey(30, 1, 0.6);
  orlib::BestKnownRegistry registry;

  sim::Device gpu;
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(32, 16);
  params.temp_samples = 200;

  params.budget.iterations = 30;
  const Cost weak = par::RunParallelSa(gpu, instance, params).best_cost;
  registry.Update(key, weak);

  params.budget.iterations = 600;
  const Cost strong = par::RunParallelSa(gpu, instance, params).best_cost;
  registry.Update(key, strong);

  EXPECT_LE(strong, weak);
  EXPECT_EQ(registry.Find(key).value(), std::min(weak, strong));
  EXPECT_LE(registry.PercentDeviation(key, weak), 100.0);
  EXPECT_DOUBLE_EQ(
      registry.PercentDeviation(key, registry.Find(key).value()), 0.0);
}

TEST(EndToEnd, UcddcpPipelineRespectsCompressionEconomics) {
  // End-to-end sanity of the controllable variant: the optimized UCDDCP
  // cost is never above the CDD cost of the same instance data, and the
  // resulting schedule is feasible with all compressions within bounds.
  const orlib::BiskupFeldmannGenerator gen;
  const Instance ucddcp = gen.Ucddcp(20, 5);
  const Instance rigid = ucddcp.as_cdd();

  sim::Device gpu;
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(32, 16);
  params.budget.iterations = 300;
  params.temp_samples = 200;

  const par::GpuRunResult flexible =
      par::RunParallelSa(gpu, ucddcp, params);
  const par::GpuRunResult inflexible =
      par::RunParallelSa(gpu, rigid.with_due_date(ucddcp.due_date()),
                         params);
  EXPECT_LE(flexible.best_cost, inflexible.best_cost);

  const Schedule plan =
      UcddcpEvaluator(ucddcp).BuildSchedule(flexible.best);
  EXPECT_NO_THROW(
      ValidateSchedule(ucddcp, plan, /*require_no_idle=*/true));
  EXPECT_EQ(EvaluateSchedule(ucddcp, plan), flexible.best_cost);
}

TEST(EndToEnd, ProfilerAccountsTheWholePipeline) {
  const orlib::BiskupFeldmannGenerator gen;
  const Instance instance = gen.Cdd(10, 0, 0.6);
  sim::Device gpu;
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(16, 16);
  params.budget.iterations = 10;
  params.temp_samples = 100;
  par::RunParallelSa(gpu, instance, params);

  double kernel_time = 0.0;
  for (const auto& [name, record] : gpu.profiler().kernels()) {
    kernel_time += record.sim_time_s;
  }
  const double transfer_time = gpu.profiler().h2d().sim_time_s +
                               gpu.profiler().d2h().sim_time_s;
  // Device clock = kernels + transfers + synchronize fences.
  EXPECT_GE(gpu.sim_time_s() + 1e-12, kernel_time + transfer_time);
  EXPECT_LT(gpu.sim_time_s(),
            kernel_time + transfer_time +
                12 * 11 * gpu.properties().launch_overhead_s);
}

}  // namespace
}  // namespace cdd
