/// LP-in-the-loop evaluator tests, including the restricted controllable
/// case (Problem::kCddcp) no O(n) algorithm covers.

#include "lp/sequence_evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/test_instances.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"
#include "meta/sa.hpp"

namespace cdd::lp {
namespace {

/// Independent exhaustive evaluator for tiny controllable instances:
/// enumerates every compression vector on a grid and every candidate
/// offset — shares no code with the simplex.
Cost ExhaustiveControllableCost(const Instance& instance,
                                std::span<const JobId> seq) {
  const std::size_t n = instance.size();
  const Time d = instance.due_date();
  std::vector<Time> reducible(n);
  std::vector<std::size_t> radix(n);
  std::size_t combos = 1;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& job = instance.job(static_cast<std::size_t>(seq[k]));
    reducible[k] = job.proc - job.min_proc;
    radix[k] = static_cast<std::size_t>(reducible[k]) + 1;
    combos *= radix[k];
  }
  Cost best = kInfiniteCost;
  for (std::size_t combo = 0; combo < combos; ++combo) {
    std::vector<Time> x(n);
    std::size_t rest = combo;
    Time total_eff = 0;
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = static_cast<Time>(rest % radix[k]);
      rest /= radix[k];
      total_eff += instance.job(static_cast<std::size_t>(seq[k])).proc -
                   x[k];
    }
    // Candidate offsets: 0 and every "some job completes at d".
    std::vector<Time> offsets{0};
    Time prefix = 0;
    for (std::size_t k = 0; k < n; ++k) {
      prefix += instance.job(static_cast<std::size_t>(seq[k])).proc - x[k];
      if (d - prefix >= 0) offsets.push_back(d - prefix);
    }
    for (const Time offset : offsets) {
      Cost cost = 0;
      Time c = offset;
      for (std::size_t k = 0; k < n; ++k) {
        const Job& job = instance.job(static_cast<std::size_t>(seq[k]));
        c += job.proc - x[k];
        cost += job.early * std::max<Time>(0, d - c);
        cost += job.tardy * std::max<Time>(0, c - d);
        cost += job.compress * x[k];
      }
      best = std::min(best, cost);
    }
  }
  return best;
}

Instance RestrictedCddcp(std::uint32_t n, std::uint64_t seed) {
  // Random controllable instance with a *restrictive* due date
  // (h ~ 0.5): exactly what the O(n) algorithms cannot solve.
  const Instance base = cdd::testing::RandomUcddcp(n, 1.0, seed);
  std::vector<Job> jobs = base.jobs();
  return Instance(Problem::kCddcp, base.due_date() / 2, std::move(jobs));
}

TEST(LpSequenceEvaluator, MatchesFastEvaluatorsOnSupportedProblems) {
  const Instance cdd = cdd::testing::RandomCdd(10, 0.5, 701);
  const Sequence seq = cdd::testing::RandomSeq(10, 7);
  EXPECT_EQ(LpSequenceEvaluator(cdd).Evaluate(seq),
            CddEvaluator(cdd).Evaluate(seq));

  const Instance ucddcp = cdd::testing::RandomUcddcp(10, 1.2, 702);
  EXPECT_EQ(LpSequenceEvaluator(ucddcp).Evaluate(seq),
            UcddcpEvaluator(ucddcp).Evaluate(seq));
}

TEST(LpSequenceEvaluator, RestrictedControllableMatchesExhaustive) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const Instance instance = RestrictedCddcp(4, 703 + trial);
    const Sequence seq = cdd::testing::RandomSeq(4, trial);
    ASSERT_EQ(LpSequenceEvaluator(instance).Evaluate(seq),
              ExhaustiveControllableCost(instance, seq))
        << instance.Summary() << " trial=" << trial;
  }
}

TEST(LpSequenceEvaluator, RestrictedNeverWorseThanRigid) {
  // Allowing compression can only help.
  const Instance instance = RestrictedCddcp(8, 720);
  const Sequence seq = IdentitySequence(8);
  const Cost flexible = LpSequenceEvaluator(instance).Evaluate(seq);
  const Cost rigid = CddEvaluator(instance.as_cdd()).Evaluate(seq);
  EXPECT_LE(flexible, rigid);
}

TEST(LpSequenceEvaluator, ScheduleIsFeasibleAndCostConsistent) {
  const Instance instance = RestrictedCddcp(6, 730);
  const Sequence seq = cdd::testing::RandomSeq(6, 3);
  const LpSequenceEvaluator eval(instance);
  const Schedule schedule = eval.BuildSchedule(seq);
  ValidateSchedule(instance, schedule);  // idle allowed in the LP
  EXPECT_EQ(EvaluateSchedule(instance, schedule), eval.Evaluate(seq));
}

TEST(LpSequenceEvaluator, DrivesMetaheuristicsOnTheRestrictedProblem) {
  // The full layer-(i) stack works on kCddcp through the LP objective —
  // the configuration the paper says is "quite slow" but is the only
  // exact option for the restricted case.
  const Instance instance = RestrictedCddcp(6, 740);
  EXPECT_THROW(meta::Objective::ForInstance(instance),
               std::invalid_argument);
  const meta::Objective objective = MakeLpObjective(instance);
  meta::SaParams params;
  params.budget.iterations = 150;
  params.temp_samples = 30;
  const meta::RunResult result = meta::RunSerialSa(objective, params);
  EXPECT_LT(result.best_cost, kInfiniteCost);
  EXPECT_EQ(objective(result.best), result.best_cost);
}

TEST(LpSequenceEvaluator, KcddcpValidatesWithoutUnrestrictedRule) {
  const Instance restricted = RestrictedCddcp(5, 750);
  EXPECT_NO_THROW(restricted.Validate());
  EXPECT_FALSE(restricted.is_unrestricted());
  EXPECT_NE(restricted.Summary().find("CDDCP"), std::string::npos);
}

}  // namespace
}  // namespace cdd::lp
