/// The variant tier's engine behavior (docs/WORKLOADS.md): "sa" and "ta"
/// search (permutation, splits) candidates on parallel-machine and
/// early-work instances, their lifecycle guarantee (split-run
/// determinism) extends to the splits state, reported
/// costs match the raw evaluators, and every other engine rejects the
/// variants with the support diagnostic.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/eval_raw.hpp"
#include "meta/engine.hpp"
#include "serve/engine_registry.hpp"

namespace cdd::serve {
namespace {

const char* const kVariantEngines[] = {"sa", "ta"};
const char* const kSequenceOnlyEngines[] = {"dpso", "es",       "host",
                                            "bnb",  "psa",      "pdpso",
                                            "psa-sync", "race"};

EngineOptions SmallOptions() {
  EngineOptions options;
  options.seed = 29;
  options.generations = 400;
  options.trajectory_stride = 16;
  return options;
}

Instance MachineInstance(std::int32_t machines, bool early_work) {
  Instance instance = cdd::testing::RandomCdd(16, 0.5, 7);
  if (machines > 1) instance = instance.with_machines(machines);
  if (early_work) {
    instance = instance.with_objective(ScheduleObjective::kEarlyWork);
  }
  return instance;
}

std::unique_ptr<meta::Engine> MakeEngine(const std::string& name,
                                         const Instance& instance) {
  const EngineFactory* factory =
      EngineRegistry::Default().FindFactory(name);
  EXPECT_NE(factory, nullptr) << name;
  return (*factory)(instance, SmallOptions());
}

/// The reported best cost must be the raw evaluator's cost of the
/// reported (best, best_splits) candidate.
void ExpectResultConsistent(const Instance& instance,
                            const meta::RunResult& result,
                            const std::string& label) {
  const auto n = static_cast<std::int32_t>(instance.size());
  const auto m = instance.machines();
  ASSERT_EQ(result.best.size(), instance.size()) << label;
  ASSERT_EQ(result.best_splits.size(),
            static_cast<std::size_t>(m > 1 ? m - 1 : 0))
      << label;
  std::int32_t prev = 0;
  for (const std::int32_t split : result.best_splits) {
    EXPECT_GE(split, prev) << label;
    EXPECT_LE(split, n) << label;
    prev = split;
  }
  std::vector<Time> proc;
  std::vector<Cost> alpha;
  std::vector<Cost> beta;
  for (const Job& job : instance.jobs()) {
    proc.push_back(job.proc);
    alpha.push_back(job.early);
    beta.push_back(job.tardy);
  }
  const std::int32_t* splits =
      result.best_splits.empty() ? nullptr : result.best_splits.data();
  const Cost expected =
      instance.objective() == ScheduleObjective::kEarlyWork
          ? raw::EvalEarlyWork(n, m, instance.due_date(),
                               result.best.data(), splits, proc.data())
                .cost
          : raw::EvalCddMachines(n, m, instance.due_date(),
                                 result.best.data(), splits, proc.data(),
                                 alpha.data(), beta.data())
                .cost;
  EXPECT_EQ(result.best_cost, expected) << label;
}

TEST(MachinesEngine, BestCostMatchesRawEvaluators) {
  for (const std::string name : kVariantEngines) {
    for (const std::int32_t m : {2, 3}) {
      for (const bool early_work : {false, true}) {
        const Instance instance = MachineInstance(m, early_work);
        auto engine = MakeEngine(name, instance);
        const meta::EngineOutput output = meta::RunToCompletion(*engine);
        ExpectResultConsistent(
            instance, output.result,
            name + " m=" + std::to_string(m) +
                (early_work ? " early-work" : " total-penalty"));
      }
    }
  }
}

TEST(MachinesEngine, SingleMachineRunsReportNoSplits) {
  for (const std::string name : kVariantEngines) {
    const Instance instance = MachineInstance(1, false);
    auto engine = MakeEngine(name, instance);
    const meta::EngineOutput output = meta::RunToCompletion(*engine);
    EXPECT_TRUE(output.result.best_splits.empty()) << name;
  }
}

TEST(MachinesEngine, SplitRunMatchesUninterrupted) {
  for (const std::string name : kVariantEngines) {
    const Instance instance = MachineInstance(3, false);
    auto reference = MakeEngine(name, instance);
    const meta::EngineOutput whole = meta::RunToCompletion(*reference);

    for (const std::uint64_t split : {1ull, 7ull, 113ull}) {
      auto engine = MakeEngine(name, instance);
      engine->Step(split);
      engine->Step(meta::kStepAll);
      const meta::EngineOutput out = engine->Finish();
      const std::string label = name + " split=" + std::to_string(split);
      EXPECT_EQ(out.result.best_cost, whole.result.best_cost) << label;
      EXPECT_EQ(out.result.best, whole.result.best) << label;
      EXPECT_EQ(out.result.best_splits, whole.result.best_splits) << label;
      EXPECT_EQ(out.result.evaluations, whole.result.evaluations) << label;
      EXPECT_EQ(out.result.trajectory, whole.result.trajectory) << label;
    }
  }
}

TEST(MachinesEngine, SupportMatrixMatchesWorkloadsDoc) {
  const Instance plain = MachineInstance(1, false);
  const Instance machines = MachineInstance(2, false);
  const Instance early = MachineInstance(1, true);
  for (const std::string name : kVariantEngines) {
    EXPECT_TRUE(EngineSupportsInstance(name, plain)) << name;
    EXPECT_TRUE(EngineSupportsInstance(name, machines)) << name;
    EXPECT_TRUE(EngineSupportsInstance(name, early)) << name;
    EXPECT_TRUE(EngineSupportDiagnostic(name, machines).empty()) << name;
  }
  for (const std::string name : kSequenceOnlyEngines) {
    EXPECT_TRUE(EngineSupportsInstance(name, plain)) << name;
    EXPECT_FALSE(EngineSupportsInstance(name, machines)) << name;
    EXPECT_FALSE(EngineSupportsInstance(name, early)) << name;
    const std::string diagnostic = EngineSupportDiagnostic(name, machines);
    EXPECT_NE(diagnostic.find(name), std::string::npos) << diagnostic;
    EXPECT_NE(diagnostic.find("sa, ta"), std::string::npos) << diagnostic;
  }
}

TEST(MachinesEngine, UnsupportedFactoriesThrowTheDiagnostic) {
  const Instance machines = MachineInstance(2, false);
  const Instance early = MachineInstance(1, true);
  for (const std::string name : kSequenceOnlyEngines) {
    const EngineFactory* factory =
        EngineRegistry::Default().FindFactory(name);
    ASSERT_NE(factory, nullptr) << name;
    EXPECT_THROW((*factory)(machines, SmallOptions()),
                 std::invalid_argument)
        << name;
    EXPECT_THROW((*factory)(early, SmallOptions()), std::invalid_argument)
        << name;
  }
  // The supported engines construct fine through the same gate.
  for (const std::string name : kVariantEngines) {
    const EngineFactory* factory =
        EngineRegistry::Default().FindFactory(name);
    ASSERT_NE(factory, nullptr) << name;
    EXPECT_NO_THROW((*factory)(machines, SmallOptions())) << name;
  }
}

}  // namespace
}  // namespace cdd::serve
