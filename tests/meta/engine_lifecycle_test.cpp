/// Resumable-engine lifecycle properties, pinned for every registered
/// engine (including the racing portfolio with a pinned contender list):
///
///   * Split-run determinism: Step(k) ... Step(rest) + Finish is
///     bit-identical to one uninterrupted Step(kStepAll) + Finish — same
///     best cost, sequence, evaluation count, trajectory, modeled time.
///   * A pre-stopped StopToken ends the run at once (kStopped, nothing
///     left to run) with a valid best-so-far sequence.
///   * The device engines refuse an ensemble whose thread ids overflow the
///     packed reduction key, before touching the device.
///
/// These are the guarantees the serve preemption loop and the racing
/// portfolio lean on when they pause engines at Step boundaries.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/sequence.hpp"
#include "core/stop_token.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"
#include "parallel/parallel_sa_sync.hpp"
#include "serve/engine_registry.hpp"

namespace cdd::serve {
namespace {

/// Engines under test.  "race" runs with a pinned portfolio so its kill
/// schedule (and hence its winner) is deterministic.
const char* const kEngines[] = {"sa",  "ta",    "dpso",  "es",      "host",
                                "bnb", "psa",   "pdpso", "psa-sync", "race"};

EngineOptions SmallOptions(const std::string& name) {
  EngineOptions options;
  options.seed = 17;
  options.generations = 60;
  options.ensemble = 32;
  options.block = 16;
  options.chains = 8;
  options.trajectory_stride = 8;
  if (name == "race") {
    options.portfolio = "sa,ta,dpso";
    options.race_slice = 7;  // deliberately not a divisor of the budget
  }
  return options;
}

Instance TestInstance(const std::string& name) {
  // The exact tier gets a small instance (its Step unit is tree nodes and
  // the node count grows exponentially in n); heuristics get a bigger one.
  if (name == "bnb") return cdd::testing::RandomCdd(9, 0.6, 3);
  return cdd::testing::RandomCdd(24, 0.6, 3);
}

std::unique_ptr<meta::Engine> MakeEngine(const std::string& name) {
  const EngineFactory* factory =
      EngineRegistry::Default().FindFactory(name);
  EXPECT_NE(factory, nullptr) << name;
  return (*factory)(TestInstance(name), SmallOptions(name));
}

void ExpectSameOutput(const meta::EngineOutput& split,
                      const meta::EngineOutput& whole,
                      const std::string& label) {
  EXPECT_EQ(split.result.best_cost, whole.result.best_cost) << label;
  EXPECT_EQ(split.result.best, whole.result.best) << label;
  EXPECT_EQ(split.result.evaluations, whole.result.evaluations) << label;
  EXPECT_EQ(split.result.trajectory, whole.result.trajectory) << label;
  EXPECT_EQ(split.result.stopped, whole.result.stopped) << label;
  // Modeled device time is a float accumulation, compared with a ULP-level
  // tolerance; results above are compared bit-for-bit.
  EXPECT_NEAR(split.device_seconds, whole.device_seconds,
              1e-9 * (1.0 + whole.device_seconds))
      << label;
}

TEST(EngineLifecycle, SplitRunMatchesUninterrupted) {
  for (const std::string name : kEngines) {
    auto reference = MakeEngine(name);
    const meta::EngineOutput whole = meta::RunToCompletion(*reference);

    for (const std::uint64_t split : {1ull, 5ull, 23ull}) {
      auto engine = MakeEngine(name);
      engine->Step(split);
      engine->Step(meta::kStepAll);
      ExpectSameOutput(engine->Finish(), whole,
                       name + " split=" + std::to_string(split));
    }
  }
}

TEST(EngineLifecycle, StepZeroIsAStatusPoll) {
  for (const std::string name : kEngines) {
    auto engine = MakeEngine(name);
    EXPECT_EQ(engine->Step(0), meta::StepStatus::kRunning) << name;
    engine->Step(meta::kStepAll);
    EXPECT_EQ(engine->Step(0), meta::StepStatus::kDone) << name;
    EXPECT_EQ(engine->Remaining(), 0u) << name;
  }
}

TEST(EngineLifecycle, FinishIsIdempotent) {
  for (const std::string name : kEngines) {
    auto engine = MakeEngine(name);
    engine->Step(meta::kStepAll);
    const meta::EngineOutput first = engine->Finish();
    ExpectSameOutput(engine->Finish(), first, name);
  }
}

TEST(EngineLifecycle, PreStoppedTokenReturnsAValidBest) {
  // Every engine has evaluated its initial state(s) by the time Step sees
  // the stop, so it must report one of them: psa-sync, stopped before its
  // first temperature level, reports the best initial ensemble member.
  StopSource source;
  source.RequestStop();
  for (const std::string name : kEngines) {
    EngineOptions options = SmallOptions(name);
    options.generations = 2'000'000;  // would take far too long if honored
    options.stop = source.token();
    const Instance instance = TestInstance(name);
    auto engine =
        (*EngineRegistry::Default().FindFactory(name))(instance, options);
    EXPECT_EQ(engine->Step(meta::kStepAll), meta::StepStatus::kStopped)
        << name;
    EXPECT_EQ(engine->Remaining(), 0u) << name;
    const meta::EngineOutput run = engine->Finish();
    EXPECT_TRUE(run.result.stopped) << name;
    EXPECT_NO_THROW(ValidateSequence(run.result.best, instance.size()))
        << name;
    EXPECT_LT(run.result.evaluations, options.generations) << name;
  }
}

TEST(EngineLifecycle, DeviceEnginesRejectEnsemblesPastPackedKeyCapacity) {
  // 1025 blocks x 1024 threads is a legal GT 560M grid, but thread ids at
  // or above 2^20 do not fit the packed (cost, thread) reduction key.
  const par::LaunchConfig config =
      par::LaunchConfig::ForEnsemble((1u << 20) + 1024, 1024);
  const Instance instance = cdd::testing::RandomCdd(8, 0.6, 3);
  sim::Device gpu;
  ASSERT_NO_THROW(config.Validate(gpu));

  par::ParallelSaParams sa;
  sa.config = config;
  sa.budget.iterations = 0;
  EXPECT_THROW(par::MakeParallelSaEngine(gpu, instance, sa),
               std::invalid_argument);
  par::ParallelDpsoParams dpso;
  dpso.config = config;
  dpso.budget.iterations = 0;
  EXPECT_THROW(par::MakeParallelDpsoEngine(gpu, instance, dpso),
               std::invalid_argument);
  par::ParallelSaSyncParams sync;
  sync.config = config;
  sync.budget.iterations = 0;
  EXPECT_THROW(par::MakeParallelSaSyncEngine(gpu, instance, sync),
               std::invalid_argument);

  // Rejected before any device allocation: nothing uploaded, no modeled
  // time spent.
  EXPECT_EQ(gpu.profiler().h2d().count, 0u);
  EXPECT_EQ(gpu.sim_time_s(), 0.0);
}

}  // namespace
}  // namespace cdd::serve
