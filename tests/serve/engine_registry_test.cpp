/// EngineRegistry: one factory per engine name, uniform options, the
/// race's environment knobs.

#include "serve/engine_registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "core/sequence.hpp"

namespace cdd::serve {
namespace {

/// One uninterrupted run of a built-in engine.
meta::EngineOutput Solve(const std::string& name, const Instance& instance,
                         const EngineOptions& options) {
  const EngineFactory* factory = EngineRegistry::Default().FindFactory(name);
  if (factory == nullptr) throw std::invalid_argument("no engine " + name);
  return meta::RunToCompletion(*(*factory)(instance, options));
}

TEST(EngineRegistry, DefaultHasAllTenEngines) {
  const std::vector<std::string> names =
      EngineRegistry::Default().Names();
  const std::vector<std::string> expected = {
      "bnb",      "dpso", "es", "host", "pdpso",
      "psa", "psa-sync", "race", "sa",  "ta"};
  EXPECT_EQ(names, expected);  // exactly the ten, sorted
}

TEST(EngineRegistry, UnknownNameReturnsNull) {
  const EngineRegistry& registry = EngineRegistry::Default();
  EXPECT_EQ(registry.FindFactory("SA"), nullptr);  // case-sensitive names
  EXPECT_EQ(registry.FindFactory("gpu"), nullptr);
  EXPECT_EQ(registry.FindFactory(""), nullptr);
}

TEST(EngineRegistry, RegisterReplacesAndFinds) {
  EngineRegistry registry;
  int first_calls = 0;
  registry.RegisterFactory(
      "x", [&first_calls](const Instance&, const EngineOptions&) {
        ++first_calls;
        return std::make_unique<cdd::testing::PacedEngine>(0, nullptr);
      });
  const EngineFactory* factory = registry.FindFactory("x");
  ASSERT_NE(factory, nullptr);
  (*factory)(cdd::testing::PaperExampleCdd(), EngineOptions{});
  EXPECT_EQ(first_calls, 1);

  int second_calls = 0;
  registry.RegisterFactory(
      "x", [&second_calls](const Instance&, const EngineOptions&) {
        ++second_calls;
        return std::make_unique<cdd::testing::PacedEngine>(0, nullptr);
      });
  (*registry.FindFactory("x"))(cdd::testing::PaperExampleCdd(),
                               EngineOptions{});
  EXPECT_EQ(first_calls, 1);  // replaced, old factory not called again
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"x"});
}

TEST(EngineRegistry, EveryEngineSolvesASmallInstance) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.6, 17);
  const EngineRegistry& registry = EngineRegistry::Default();

  EngineOptions options;
  options.generations = 50;
  options.seed = 5;
  options.ensemble = 32;  // keep the simulated-GPU engines cheap
  options.block = 16;
  options.chains = 4;
  options.threads = 1;

  for (const std::string& name : registry.Names()) {
    const meta::EngineOutput run = Solve(name, instance, options);
    EXPECT_NO_THROW(ValidateSequence(run.result.best, 10)) << name;
    EXPECT_GE(run.result.best_cost, 0) << name;
    EXPECT_GT(run.result.evaluations, 0u) << name;
    EXPECT_FALSE(run.result.stopped) << name;
    // Simulated-GPU engines report modeled device time, host engines 0.
    const bool gpu =
        name == "psa" || name == "pdpso" || name == "psa-sync";
    if (gpu) {
      EXPECT_GT(run.device_seconds, 0.0) << name;
    } else {
      EXPECT_DOUBLE_EQ(run.device_seconds, 0.0) << name;
    }
  }
}

TEST(EngineRegistry, AdapterIsDeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.4, 23);
  EngineOptions options;
  options.generations = 200;
  options.seed = 9;
  const meta::EngineOutput a = Solve("sa", instance, options);
  const meta::EngineOutput b = Solve("sa", instance, options);
  EXPECT_EQ(a.result.best, b.result.best);
  EXPECT_EQ(a.result.best_cost, b.result.best_cost);
}

TEST(EngineRegistry, EnvRaceSliceIsMaterializedIntoTheOptions) {
  // The effective slice decides the kill schedule, so it must reach the
  // cache key and the manifest record; with the variable unset the
  // options (and so default races' manifests) stay untouched.
  EngineOptions options;
  options.portfolio = "sa,ta";
  ::unsetenv("CDD_RACE_SLICE");
  MaterializeRaceOptions(options);
  EXPECT_EQ(options.race_slice, 0u);
  ::setenv("CDD_RACE_SLICE", "7", 1);
  MaterializeRaceOptions(options);
  EXPECT_EQ(options.race_slice, 7u);
  options.race_slice = 5;  // an explicit slice wins over the variable
  MaterializeRaceOptions(options);
  EXPECT_EQ(options.race_slice, 5u);
  ::unsetenv("CDD_RACE_SLICE");
}

TEST(EngineRegistry, MalformedEnvRaceSliceIsRejected) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.4, 23);
  EngineOptions options;
  options.generations = 50;
  options.portfolio = "sa,ta";
  for (const char* bad : {"abc", "0", "7x", "-3", " 7", ""}) {
    ::setenv("CDD_RACE_SLICE", bad, 1);
    EXPECT_THROW(Solve("race", instance, options), std::invalid_argument)
        << "'" << bad << "'";
  }
  ::unsetenv("CDD_RACE_SLICE");
}

TEST(EngineRegistry, MalformedEnvRacePortfolioIsRejected) {
  // A set variable that names no engine is an error, never a silent
  // fallback to the bandit prior.
  EngineOptions options;
  for (const char* bad : {"", ",", " , "}) {
    ::setenv("CDD_RACE_PORTFOLIO", bad, 1);
    EXPECT_THROW(MaterializeRaceOptions(options), std::invalid_argument)
        << "'" << bad << "'";
    EXPECT_THROW(RacePortfolioPinned(options), std::invalid_argument)
        << "'" << bad << "'";
  }
  ::setenv("CDD_RACE_PORTFOLIO", "sa, ta", 1);
  MaterializeRaceOptions(options);
  EXPECT_EQ(options.portfolio, "sa, ta");
  ::unsetenv("CDD_RACE_PORTFOLIO");
}

}  // namespace
}  // namespace cdd::serve
