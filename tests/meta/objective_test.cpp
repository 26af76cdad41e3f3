/// Objective adapter tests.

#include "meta/objective.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/test_instances.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"

namespace cdd::meta {
namespace {

TEST(Objective, DispatchesToTheRightEvaluator) {
  const Instance cdd = cdd::testing::PaperExampleCdd();
  const Objective f_cdd = Objective::ForInstance(cdd);
  EXPECT_EQ(f_cdd.size(), 5u);
  EXPECT_EQ(f_cdd(IdentitySequence(5)), 81);

  const Instance ucddcp = cdd::testing::PaperExampleUcddcp();
  const Objective f_ucddcp = Objective::ForInstance(ucddcp);
  EXPECT_EQ(f_ucddcp(IdentitySequence(5)), 77);
}

TEST(Objective, UcddcpEvaluateMatchesTheTwoPassReference) {
  // Evaluate decides once, at construction, whether the one-pass walk
  // applies (d == sum P, or d > sum P with some alpha > 0); otherwise it
  // takes the two-pass walk.  All three cases must cost a row as the
  // reference does.
  const Instance base = cdd::testing::RandomUcddcp(40, 1.0, 1103);
  const Instance slack = cdd::testing::RandomUcddcp(40, 1.3, 1104);
  std::vector<Time> proc;
  std::vector<Time> min_proc;
  std::vector<Cost> tardy;
  std::vector<Cost> gamma;
  for (const Job& job : slack.jobs()) {
    proc.push_back(job.proc);
    min_proc.push_back(job.min_proc);
    tardy.push_back(job.tardy);
    gamma.push_back(job.compress);
  }
  const Instance no_alpha(Problem::kUcddcp, slack.due_date(), proc,
                          std::vector<Cost>(proc.size(), 0), tardy, min_proc,
                          gamma);
  for (const Instance* instance : {&base, &slack, &no_alpha}) {
    const Objective objective = Objective::ForInstance(*instance);
    const UcddcpEvaluator reference(*instance);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const Sequence seq = cdd::testing::RandomSeq(40, 1200 + seed);
      EXPECT_EQ(objective.Evaluate(seq), reference.Evaluate(seq))
          << "d=" << instance->due_date() << " seed=" << seed;
    }
  }
}

TEST(Objective, OutlivesTheInstanceItWasBuiltFrom) {
  // The factory captures the evaluator by shared_ptr; the source Instance
  // may die.
  std::unique_ptr<Objective> objective;
  {
    const Instance temp = cdd::testing::RandomCdd(12, 0.6, 1101);
    objective = std::make_unique<Objective>(Objective::ForInstance(temp));
  }
  const Sequence seq = IdentitySequence(12);
  EXPECT_GT((*objective)(seq), 0);
  EXPECT_EQ((*objective)(seq), (*objective)(seq));  // stable
}

class ConstantEvaluator : public BatchEvaluator {
 public:
  Cost Evaluate(std::span<const JobId>) const override { return Cost{7}; }
};

TEST(Objective, CustomBackendsWork) {
  const Objective constant(4, std::make_shared<ConstantEvaluator>());
  EXPECT_EQ(constant(IdentitySequence(4)), 7);
  EXPECT_EQ(constant.size(), 4u);
  EXPECT_FALSE(constant.direct());

  // The default batch path walks the pool and marks pinned unknown.
  CandidatePool pool(4, 3);
  for (int b = 0; b < 3; ++b) pool.Append(IdentitySequence(4));
  constant.EvaluateBatch(pool);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(pool.costs()[b], 7);
    EXPECT_EQ(pool.pinned()[b], -1);
  }
}

TEST(Objective, NullBackendRefused) {
  EXPECT_THROW(Objective(4, nullptr), std::invalid_argument);
}

TEST(Objective, DirectObjectivesFillBatchGeometry) {
  const Instance cdd = cdd::testing::PaperExampleCdd();
  const Objective objective = Objective::ForInstance(cdd);
  EXPECT_TRUE(objective.direct());
  CandidatePool pool(5, 2);
  pool.Append(IdentitySequence(5));
  pool.Append(IdentitySequence(5));
  objective.EvaluateBatch(pool);
  const CddEvaluator reference(cdd);
  const raw::EvalResult want = reference.EvaluateDetailed(IdentitySequence(5));
  for (int b = 0; b < 2; ++b) {
    EXPECT_EQ(pool.costs()[b], want.cost);
    EXPECT_EQ(pool.pinned()[b], want.pinned);
  }
}

TEST(Objective, RestrictedControllableRefusedWithGuidance) {
  const Instance base = cdd::testing::RandomUcddcp(6, 1.0, 1102);
  const Instance restricted =
      Instance(Problem::kCddcp, base.due_date() - 1, base.jobs());
  try {
    Objective::ForInstance(restricted);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MakeLpObjective"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace cdd::meta
