/// Single-flight coalescing in the SolverService: concurrent duplicates
/// attach to one in-flight solve and receive bit-identical results, and a
/// leader that cannot deliver a full-budget run re-elects a waiter to
/// solve instead of handing out a truncated result.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cdd::serve {
namespace {

using cdd::testing::BlockingRegistry;
using cdd::testing::Gate;

std::future<SolveResponse> ParkWorker(SolverService& service, Gate& gate) {
  SolveRequest blocker;
  blocker.id = 99;
  blocker.instance = cdd::testing::RandomCdd(8, 0.5, 999);
  blocker.engine = "block";
  std::future<SolveResponse> parked = service.Submit(std::move(blocker));
  while (gate.entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return parked;
}

bool AwaitCounter(SolverService& service, const char* name,
                  std::uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.metrics().counter(name).value() < at_least) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServiceCoalesce, WaitersReceiveTheLeadersBitIdenticalResult) {
  Gate gate;
  const EngineRegistry registry = BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  SolverService service(config, registry);
  std::future<SolveResponse> parked = ParkWorker(service, gate);

  SolveRequest duplicate;
  duplicate.instance = cdd::testing::PaperExampleCdd();
  duplicate.engine = "sa";
  duplicate.options.generations = 300;
  duplicate.options.seed = 7;

  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    SolveRequest request = duplicate;
    request.id = i;
    futures.push_back(service.Submit(std::move(request)));
  }
  // The worker is parked: the first duplicate led, the other two joined.
  ASSERT_TRUE(AwaitCounter(service, "coalesced_joins", 2));
  gate.Release();

  std::vector<SolveResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  parked.get();

  unsigned coalesced = 0;
  for (const SolveResponse& r : responses) {
    EXPECT_EQ(r.status, SolveStatus::kOk);
    if (r.coalesced) ++coalesced;
    EXPECT_EQ(r.result.best, responses[0].result.best);
    EXPECT_EQ(r.result.best_cost, responses[0].result.best_cost);
    EXPECT_EQ(r.result.evaluations, responses[0].result.evaluations);
  }
  EXPECT_EQ(coalesced, 2u);
  // Exactly one solve ran for the duplicated key (plus the blocker).
  EXPECT_EQ(service.metrics().counter("completed").value(), 2u);
  EXPECT_EQ(service.metrics().counter("coalesced_joins").value(), 2u);
  service.Shutdown();
}

TEST(ServiceCoalesce, ExpiredLeaderReElectsAWaiter) {
  Gate gate;
  const EngineRegistry registry = BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  config.cache_capacity = 0;
  SolverService service(config, registry);
  std::future<SolveResponse> parked = ParkWorker(service, gate);

  // Leader with a deadline that will expire while it waits in the queue;
  // the waiter has no deadline and must not inherit the leader's failure.
  SolveRequest leader;
  leader.id = 1;
  leader.instance = cdd::testing::PaperExampleCdd();
  leader.engine = "sa";
  leader.options.generations = 200;
  leader.deadline = std::chrono::milliseconds(30);
  std::future<SolveResponse> leader_future =
      service.Submit(std::move(leader));

  SolveRequest waiter;
  waiter.id = 2;
  waiter.instance = cdd::testing::PaperExampleCdd();
  waiter.engine = "sa";
  waiter.options.generations = 200;
  std::future<SolveResponse> waiter_future =
      service.Submit(std::move(waiter));
  ASSERT_TRUE(AwaitCounter(service, "coalesced_joins", 1));

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Release();
  parked.get();

  // The leader expired in the queue without solving...
  EXPECT_EQ(leader_future.get().status, SolveStatus::kDeadlineExpired);
  // ...and the waiter was promoted to leader and solved in full rather
  // than receiving the leader's truncated outcome.
  const SolveResponse promoted = waiter_future.get();
  EXPECT_EQ(promoted.status, SolveStatus::kOk);
  EXPECT_FALSE(promoted.result.best.empty());
  EXPECT_FALSE(promoted.result.stopped);
  EXPECT_EQ(service.metrics().counter("coalesce_reelected").value(), 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace cdd::serve
