/// Single-flight coalescing in the SolverService: concurrent duplicates
/// attach to one in-flight solve and receive bit-identical results, in
/// process and over the socket front end, and a leader that cannot
/// deliver a full-budget run re-elects a waiter to solve instead of
/// handing out a truncated result.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "serve/net/client.hpp"
#include "serve/net/front_end.hpp"
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

/// Submits \p request in process, or, when \p front_end is given, on a
/// connection of its own through the socket front end.
std::future<SolveResponse> Offer(SolverService& service,
                                 const net::FrontEnd* front_end,
                                 SolveRequest request) {
  if (front_end == nullptr) return service.Submit(std::move(request));
  return std::async(std::launch::async,
                    [port = front_end->port(), request = std::move(request)] {
                      net::BlockingClient wire("127.0.0.1", port);
                      return wire.Call(request);
                    });
}

TEST(ServiceCoalesce, WaitersReceiveTheLeadersBitIdenticalResult) {
  // In process, then through the socket front end: the coalesced flag and
  // the shared result must survive the wire.
  for (const bool over_socket : {false, true}) {
    SCOPED_TRACE(over_socket ? "socket" : "in-process");
    Gate gate;
    const EngineRegistry registry = BlockingRegistry(&gate);
    ServiceConfig config;
    config.workers = 1;
    SolverService service(config, registry);
    std::optional<net::FrontEnd> front_end;
    if (over_socket) front_end.emplace(net::FrontEndConfig{}, service);
    std::future<SolveResponse> parked = ParkWorker(service, gate);

    SolveRequest duplicate;
    duplicate.instance = cdd::testing::PaperExampleCdd();
    duplicate.engine = "sa";
    duplicate.options.generations = 300;
    duplicate.options.seed = 7;

    constexpr std::uint64_t kDuplicates = 4;
    std::vector<std::future<SolveResponse>> futures;
    for (std::uint64_t i = 1; i <= kDuplicates; ++i) {
      SolveRequest request = duplicate;
      request.id = i;
      futures.push_back(Offer(service, front_end ? &*front_end : nullptr,
                              std::move(request)));
    }
    // The worker is parked: the first duplicate led, the others joined.
    // The gate opens before the check, so a failure cannot leave the
    // worker parked under the service's destructor.
    const bool joined =
        AwaitCounter(service, "coalesced_joins", kDuplicates - 1);
    gate.Release();
    ASSERT_TRUE(joined);

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
    EXPECT_EQ(coalesced, kDuplicates - 1);
    // Exactly one solve ran for the duplicated key (plus the blocker).
    EXPECT_EQ(service.metrics().counter("completed").value(), 2u);
    EXPECT_EQ(service.metrics().counter("coalesced_joins").value(),
              kDuplicates - 1);
    if (front_end) front_end->Stop();
    service.Shutdown();
  }
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
  // Recorded, not asserted, while the worker is parked: an assertion that
  // returned here would leave the destructor joining a parked worker.
  const bool joined = AwaitCounter(service, "coalesced_joins", 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Release();
  parked.get();
  EXPECT_TRUE(joined) << "the duplicate did not join the queued leader";

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
