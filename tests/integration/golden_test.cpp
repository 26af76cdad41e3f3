/// Golden regression tests: fixed seeds, exact expected outcomes.
///
/// These pin down the *whole* deterministic pipeline — benchmark
/// generator, Philox streams, neighbourhood policy, metropolis rule,
/// kernel scheduling — so an accidental change anywhere shows up as a
/// failing value, not a silent quality drift.  If you change an algorithm
/// ON PURPOSE, re-derive the constants (the test names tell you the exact
/// configuration) and update them together with a CHANGELOG note.
///
/// Caveat: the metropolis test compares float/double expressions, so these
/// values are specific to IEEE-754 double/float math (any conforming
/// x86-64/AArch64 build); they are not meant for exotic FP modes.

#include <gtest/gtest.h>

#include "cudasim/device.hpp"
#include "meta/dpso.hpp"
#include "meta/sa.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"

namespace cdd {
namespace {

const Instance& Cdd50() {
  static const Instance instance =
      orlib::BiskupFeldmannGenerator().Cdd(50, 0, 0.6);
  return instance;
}

const Instance& Ucddcp50() {
  static const Instance instance =
      orlib::BiskupFeldmannGenerator().Ucddcp(50, 0);
  return instance;
}

TEST(Golden, BenchmarkGeneratorFingerprint) {
  // Weighted checksums of the default-seed benchmark data: any change to
  // the Philox generator or the draw order lands here first.
  long long sum = 0;
  for (const Job& j : Cdd50().jobs()) {
    sum += j.proc * 31 + j.early * 7 + j.tardy;
  }
  EXPECT_EQ(sum, 18254);
  EXPECT_EQ(Cdd50().due_date(), 308);

  long long usum = 0;
  for (const Job& j : Ucddcp50().jobs()) {
    usum += j.min_proc * 13 + j.compress;
  }
  EXPECT_EQ(usum, 3748);
  EXPECT_EQ(Ucddcp50().due_date(), 514);
}

TEST(Golden, SerialSaSeed42) {
  meta::SaParams params;
  params.budget.iterations = 2000;
  params.temp_samples = 500;
  params.budget.seed = 42;
  EXPECT_EQ(meta::RunSerialSa(meta::Objective::ForInstance(Cdd50()),
                              params)
                .best_cost,
            17849);
  EXPECT_EQ(meta::RunSerialSa(meta::Objective::ForInstance(Ucddcp50()),
                              params)
                .best_cost,
            8766);
}

TEST(Golden, SerialDpsoSeed42) {
  meta::DpsoParams params;
  params.budget.iterations = 300;
  params.swarm = 32;
  params.budget.seed = 42;
  EXPECT_EQ(meta::RunSerialDpso(meta::Objective::ForInstance(Cdd50()),
                                params)
                .best_cost,
            17261);
}

TEST(Golden, ParallelSaSeed42) {
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(64, 32);
  params.budget.iterations = 400;
  params.temp_samples = 500;
  params.budget.seed = 42;
  {
    sim::Device gpu;
    EXPECT_EQ(par::RunParallelSa(gpu, Cdd50(), params).best_cost, 18559);
  }
  {
    sim::Device gpu;
    EXPECT_EQ(par::RunParallelSa(gpu, Ucddcp50(), params).best_cost, 9054);
  }
}

TEST(Golden, ParallelDpsoSeed42) {
  par::ParallelDpsoParams params;
  params.config = par::LaunchConfig::ForEnsemble(64, 32);
  params.budget.iterations = 400;
  params.budget.seed = 42;
  sim::Device gpu;
  EXPECT_EQ(par::RunParallelDpso(gpu, Cdd50(), params).best_cost, 17090);
}

}  // namespace
}  // namespace cdd
