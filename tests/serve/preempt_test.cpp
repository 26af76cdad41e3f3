/// Step-boundary preemption in the SolverService: with a
/// preempt_slice configured, a higher-priority arrival pauses the running
/// lower-priority solve at its next Step boundary, runs to completion on
/// the same worker, and the paused solve then resumes and still finishes.
/// Without one, every solve is a single Step(kStepAll).
/// Also pins the cache-key contract for the new race options.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "meta/engine.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cdd::serve {
namespace {

using cdd::testing::PacedEngine;

/// Free Step units: records every Step budget and every Finish call, so a
/// test can see exactly how the service drove the engine.
class CountingEngine final : public meta::Engine {
 public:
  CountingEngine(std::uint64_t budget, std::vector<std::uint64_t>* steps,
                 int* finishes)
      : budget_(budget), steps_(steps), finishes_(finishes) {}

  meta::StepStatus Step(std::uint64_t units) override {
    steps_->push_back(units);
    consumed_ += std::min(units, budget_ - consumed_);
    return consumed_ < budget_ ? meta::StepStatus::kRunning
                               : meta::StepStatus::kDone;
  }

  std::uint64_t Remaining() const override { return budget_ - consumed_; }
  Cost BestCost() const override { return 0; }

  meta::EngineOutput Finish() override {
    ++*finishes_;
    meta::EngineOutput out;
    out.result.best_cost = 0;
    out.result.evaluations = consumed_;
    return out;
  }

 private:
  std::uint64_t budget_;
  std::uint64_t consumed_ = 0;
  std::vector<std::uint64_t>* steps_;
  int* finishes_;
};

/// Solves one request on a "count" engine with \p budget units under
/// \p preempt_slice; returns the Step budgets the service used.
std::vector<std::uint64_t> CountedSteps(std::uint64_t preempt_slice,
                                        std::uint64_t budget) {
  std::vector<std::uint64_t> steps;
  int finishes = 0;
  EngineRegistry registry;
  registry.RegisterFactory(
      "count", [&](const Instance&, const EngineOptions&) {
        return std::make_unique<CountingEngine>(budget, &steps, &finishes);
      });
  ServiceConfig config;
  config.workers = 1;
  config.preempt_slice = preempt_slice;
  SolverService service(config, registry);

  SolveRequest request;
  request.instance = cdd::testing::PaperExampleCdd();
  request.engine = "count";
  const SolveResponse response = service.Submit(std::move(request)).get();
  EXPECT_EQ(response.status, SolveStatus::kOk);
  EXPECT_EQ(response.result.evaluations, budget);
  EXPECT_EQ(finishes, 1);
  return steps;
}

TEST(ServicePreemption, HigherPriorityArrivalRunsAtSliceBoundary) {
  std::atomic<bool> slow_started{false};
  EngineRegistry registry;
  registry.RegisterFactory(
      "slow", [&](const Instance&, const EngineOptions&) {
        return std::make_unique<PacedEngine>(300, &slow_started);
      });
  registry.RegisterFactory(
      "fast", [](const Instance&, const EngineOptions&) {
        return std::make_unique<PacedEngine>(1, nullptr);
      });

  ServiceConfig config;
  config.workers = 1;
  config.cache_capacity = 0;
  config.preempt_slice = 2;
  SolverService service(config, registry);

  SolveRequest low;
  low.id = 1;
  low.instance = cdd::testing::PaperExampleCdd();
  low.engine = "slow";
  low.priority = 0;
  std::future<SolveResponse> low_future = service.Submit(std::move(low));

  // Wait until the low-priority solve is actually running on the single
  // worker, so the high-priority submit below must preempt (it cannot
  // just win the queue).
  while (!slow_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  SolveRequest high;
  high.id = 2;
  high.instance = cdd::testing::PaperExampleCdd();
  high.engine = "fast";
  high.priority = 5;
  std::future<SolveResponse> high_future = service.Submit(std::move(high));

  const SolveResponse high_response = high_future.get();
  EXPECT_EQ(high_response.status, SolveStatus::kOk);
  // The high-priority request finished while the low-priority solve (with
  // hundreds of milliseconds of budget left) was still paused on the
  // worker's stack: that is a preemption, and the counter proves it.
  EXPECT_EQ(low_future.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  EXPECT_GE(service.metrics().counter("preemptions").value(), 1u);

  const SolveResponse low_response = low_future.get();
  EXPECT_EQ(low_response.status, SolveStatus::kOk);
  EXPECT_EQ(low_response.result.evaluations, 300u);  // resumed, not lost
}

TEST(ServicePreemption, ZeroSliceRunsOneStepAll) {
  // No preemption: the whole budget in one Step(kStepAll), then Finish.
  const std::vector<std::uint64_t> expected = {meta::kStepAll};
  EXPECT_EQ(CountedSteps(/*preempt_slice=*/0, /*budget=*/10), expected);
}

TEST(ServicePreemption, NonzeroSliceStepsInSliceSizedUnits) {
  // preempt_slice = 3 over a budget of 10: four 3-unit Steps (the last
  // one saturates at the budget), then Finish.
  const std::vector<std::uint64_t> expected = {3, 3, 3, 3};
  EXPECT_EQ(CountedSteps(/*preempt_slice=*/3, /*budget=*/10), expected);
}

TEST(CacheKey, RaceOptionsAreHashedPriorityIsNot) {
  SolveRequest base;
  base.instance = cdd::testing::PaperExampleCdd();
  base.engine = "race";
  base.options.portfolio = "sa,ta";
  base.options.race_slice = 64;

  SolveRequest other_portfolio = base;
  other_portfolio.options.portfolio = "sa,dpso";
  EXPECT_NE(CacheKey(base), CacheKey(other_portfolio));

  SolveRequest other_slice = base;
  other_slice.options.race_slice = 128;
  EXPECT_NE(CacheKey(base), CacheKey(other_slice));

  // Priority (like deadline) orders work without changing results, so
  // requests differing only in priority share a cache entry.
  SolveRequest other_priority = base;
  other_priority.priority = 9;
  EXPECT_EQ(CacheKey(base), CacheKey(other_priority));
}

}  // namespace
}  // namespace cdd::serve
