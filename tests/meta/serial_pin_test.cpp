/// Serial-run pins: sa, ta, es and the host ensemble at fixed seeds on
/// n = 200 instances, each pinned by best_cost, evaluations and a hash of
/// (best, best_splits).  The engines' RNG draws and their order are part
/// of the contract, so any change to how a move is applied, scored or
/// undone that alters a single accepted candidate shows up here.  A
/// mismatch prints the full actual table for a deliberate re-pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/hash.hpp"
#include "meta/evostrategy.hpp"
#include "meta/host_ensemble.hpp"
#include "meta/objective.hpp"
#include "meta/sa.hpp"
#include "meta/threshold.hpp"

namespace cdd::meta {
namespace {

constexpr std::uint32_t kJobs = 200;
constexpr std::uint64_t kChainIterations = 20000;

struct Pin {
  const char* label;
  Cost best_cost;
  std::uint64_t evaluations;
  std::uint64_t best_hash;
};

std::uint64_t HashBest(const RunResult& result) {
  std::uint64_t h = kHashSeed;
  for (const JobId job : result.best) h = HashCombine(h, job);
  for (const std::int32_t split : result.best_splits) {
    h = HashCombine(h, static_cast<std::uint64_t>(split));
  }
  return h;
}

Instance Cdd() { return cdd::testing::RandomCdd(kJobs, 0.4, 3001); }
Instance Ucddcp() { return cdd::testing::RandomUcddcp(kJobs, 1.2, 3002); }
Instance Machines(std::int32_t m) { return Cdd().with_machines(m); }
Instance EarlyWork() {
  return Machines(2).with_objective(ScheduleObjective::kEarlyWork);
}

RunResult Sa(const Instance& instance) {
  SaParams params;
  params.budget = {.iterations = kChainIterations, .seed = 11};
  return RunSerialSa(SequenceObjective::ForInstance(instance), params);
}

RunResult Ta(const Instance& instance) {
  TaParams params;
  params.budget = {.iterations = kChainIterations, .seed = 12};
  return RunThresholdAccepting(SequenceObjective::ForInstance(instance),
                               params);
}

RunResult Es(const Instance& instance) {
  EsParams params;
  params.budget = {.iterations = 400, .seed = 13};
  return RunEvolutionStrategy(SequenceObjective::ForInstance(instance),
                              params);
}

RunResult Host(const Instance& instance) {
  HostEnsembleParams params;
  params.chains = 16;
  params.threads = 1;
  params.chain.budget = {.iterations = 800, .seed = 14};
  return RunHostEnsembleSa(SequenceObjective::ForInstance(instance), params);
}

struct Case {
  const char* label;
  std::function<RunResult()> run;
};

std::vector<Case> Cases() {
  return {
      {"sa/cdd", [] { return Sa(Cdd()); }},
      {"sa/ucddcp", [] { return Sa(Ucddcp()); }},
      {"sa/m2", [] { return Sa(Machines(2)); }},
      {"sa/m4", [] { return Sa(Machines(4)); }},
      {"sa/earlywork-m2", [] { return Sa(EarlyWork()); }},
      {"ta/cdd", [] { return Ta(Cdd()); }},
      {"ta/ucddcp", [] { return Ta(Ucddcp()); }},
      {"ta/m2", [] { return Ta(Machines(2)); }},
      {"ta/m4", [] { return Ta(Machines(4)); }},
      {"ta/earlywork-m2", [] { return Ta(EarlyWork()); }},
      {"es/cdd", [] { return Es(Cdd()); }},
      {"es/ucddcp", [] { return Es(Ucddcp()); }},
      {"host/cdd", [] { return Host(Cdd()); }},
  };
}

// clang-format off
const Pin kPins[] = {
    {"sa/cdd", 257769, 20001, 0x51a0aa172b185e84ULL},
    {"sa/ucddcp", 110134, 20001, 0xc94fbd51601e5a0aULL},
    {"sa/m2", 109258, 20001, 0xf8b975d2521b52fULL},
    {"sa/m4", 54285, 20001, 0xb83d34b183a40c3dULL},
    {"sa/earlywork-m2", 445, 20001, 0x31159faeed618f40ULL},
    {"ta/cdd", 260830, 20001, 0xec6e797a2d400ef8ULL},
    {"ta/ucddcp", 114005, 20001, 0xa4d8e817c6c3a964ULL},
    {"ta/m2", 112416, 20001, 0x6a236a6ae135b19fULL},
    {"ta/m4", 55510, 20001, 0xc62ace98592a7b2fULL},
    {"ta/earlywork-m2", 445, 20001, 0xd0e20a1bbb36ed46ULL},
    {"es/cdd", 288293, 16010, 0x3141a1e1f107f308ULL},
    {"es/ucddcp", 125924, 16010, 0x35ba5e0802644232ULL},
    {"host/cdd", 362071, 12816, 0x83e6488bed108b52ULL},
};
// clang-format on

TEST(SerialPin, RunsMatchPinnedResults) {
  const std::vector<Case> cases = Cases();
  ASSERT_EQ(std::size(kPins), cases.size());
  std::ostringstream actual;
  bool all_match = true;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const RunResult result = cases[c].run();
    const std::uint64_t hash = HashBest(result);
    actual << "    {\"" << cases[c].label << "\", " << result.best_cost
           << ", " << result.evaluations << ", 0x" << std::hex << hash
           << std::dec << "ULL},\n";
    const Pin& pin = kPins[c];
    EXPECT_STREQ(pin.label, cases[c].label);
    EXPECT_EQ(result.best_cost, pin.best_cost) << cases[c].label;
    EXPECT_EQ(result.evaluations, pin.evaluations) << cases[c].label;
    EXPECT_EQ(hash, pin.best_hash) << cases[c].label;
    all_match = all_match && result.best_cost == pin.best_cost &&
                result.evaluations == pin.evaluations &&
                hash == pin.best_hash;
  }
  if (!all_match) ADD_FAILURE() << "actual pins:\n" << actual.str();
}

}  // namespace
}  // namespace cdd::meta
