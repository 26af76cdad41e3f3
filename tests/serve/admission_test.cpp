/// Admission control and load shedding in the SolverService: past the
/// high watermark the lowest-priority work is shed first, tenants past
/// their fair share are shed above the low watermark, provably
/// deadline-infeasible requests are rejected at admission instead of
/// expiring in the queue, and a worker at its preemption-depth cap
/// records the starvation instead of hiding it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cdd::serve {
namespace {

using cdd::testing::BlockingRegistry;
using cdd::testing::Gate;
using cdd::testing::PacedEngine;

std::future<SolveResponse> ParkWorker(SolverService& service, Gate& gate,
                                      unsigned nth = 1) {
  SolveRequest blocker;
  blocker.id = 9000 + nth;
  blocker.instance = cdd::testing::RandomCdd(8, 0.5, 990 + nth);
  blocker.engine = "block";
  std::future<SolveResponse> parked = service.Submit(std::move(blocker));
  while (gate.entered.load() < nth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return parked;
}

SolveRequest DistinctRequest(std::uint64_t id, int priority) {
  SolveRequest request;
  request.id = id;
  request.instance =
      cdd::testing::RandomCdd(10, 0.5, /*seed=*/id);
  request.engine = "sa";
  request.options.generations = 100;
  request.priority = priority;
  return request;
}

TEST(ServiceAdmission, OverloadShedsLowestPriorityFirst) {
  Gate gate;
  const EngineRegistry registry = BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.cache_capacity = 0;
  config.shed_low_watermark = 1;
  config.shed_high_watermark = 4;
  SolverService service(config, registry);
  std::future<SolveResponse> parked = ParkWorker(service, gate);

  // Fill to the high watermark with priorities 5..2, then offer two
  // lower-priority requests (shed on arrival) and one higher-priority
  // request (displaces the queued priority-2 victim).
  const std::vector<int> priorities = {5, 4, 3, 2, 1, 0, 6};
  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    futures.push_back(
        service.Submit(DistinctRequest(10 + i, priorities[i])));
  }

  // The shed answers resolve synchronously: prio 1 and prio 0 on arrival,
  // prio 2 displaced by the prio-6 arrival.  Only readiness is checked
  // while the worker is parked: a get() on a future that is not ready
  // would wait on the gate forever.
  const std::size_t shed_indices[] = {3, 4, 5};
  for (const std::size_t shed_index : shed_indices) {
    EXPECT_EQ(futures[shed_index].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "priority " << priorities[shed_index];
  }
  EXPECT_EQ(service.metrics().counter("shed_overload").value(), 3u);

  gate.Release();
  parked.get();
  for (const std::size_t shed_index : shed_indices) {
    EXPECT_EQ(futures[shed_index].get().status, SolveStatus::kShedOverload)
        << "priority " << priorities[shed_index];
  }
  // The survivors (priorities 6, 5, 4, 3) all complete.
  for (const std::size_t kept_index : {std::size_t{0}, std::size_t{1},
                                       std::size_t{2}, std::size_t{6}}) {
    EXPECT_EQ(futures[kept_index].get().status, SolveStatus::kOk);
  }
  service.Shutdown();
}

TEST(ServiceAdmission, TenantOverFairShareIsShed) {
  Gate gate;
  const EngineRegistry registry = BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;  // fair share with 2 tenants: 8 / 2 = 4
  config.cache_capacity = 0;
  config.shed_low_watermark = 1;
  config.shed_high_watermark = 8;
  SolverService service(config, registry);
  std::future<SolveResponse> parked = ParkWorker(service, gate);

  std::vector<std::future<SolveResponse>> greedy;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SolveRequest request = DistinctRequest(20 + i, 0);
    request.tenant = "greedy";
    greedy.push_back(service.Submit(std::move(request)));
  }
  // A second tenant makes fair share enforceable (active > 1)...
  SolveRequest modest = DistinctRequest(30, 0);
  modest.tenant = "modest";
  std::future<SolveResponse> modest_future =
      service.Submit(std::move(modest));

  // ...so the greedy tenant's fifth request (its share is 4) is shed.
  SolveRequest fifth = DistinctRequest(31, 0);
  fifth.tenant = "greedy";
  std::future<SolveResponse> fifth_future =
      service.Submit(std::move(fifth));
  // Only readiness is recorded while the worker is parked: an assertion
  // that returned here would leave the destructor joining a parked
  // worker, and a get() on an unready future would wait on the gate.
  const bool fifth_ready = fifth_future.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
  EXPECT_EQ(service.metrics().counter("shed_tenant_overquota").value(), 1u);

  gate.Release();
  parked.get();
  EXPECT_TRUE(fifth_ready) << "the over-share request was not shed";
  EXPECT_EQ(fifth_future.get().status, SolveStatus::kShedOverload);
  for (auto& future : greedy) {
    EXPECT_EQ(future.get().status, SolveStatus::kOk);
  }
  EXPECT_EQ(modest_future.get().status, SolveStatus::kOk);
  service.Shutdown();
}

TEST(ServiceAdmission, DeadlineInfeasibleRejectedAtAdmission) {
  Gate gate;
  const EngineRegistry registry = BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.cache_capacity = 0;
  config.shed_low_watermark = 1;
  config.shed_high_watermark = 8;
  SolverService service(config, registry);

  // Seed the solve-latency history with one ~30ms solve, so the predictor
  // has a mean to work with (no history admits unconditionally).
  std::future<SolveResponse> first = ParkWorker(service, gate, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Release();
  first.get();

  // Park the worker again and queue one request: depth 1 >= low.
  gate.Reset();
  std::future<SolveResponse> parked = ParkWorker(service, gate, 2);
  std::future<SolveResponse> filler =
      service.Submit(DistinctRequest(40, 0));

  // A 1ms deadline behind a ~30ms mean queue wait is provably infeasible:
  // rejected at admission, before it could expire in the queue.
  SolveRequest doomed = DistinctRequest(41, 0);
  doomed.deadline = std::chrono::milliseconds(1);
  std::future<SolveResponse> doomed_future =
      service.Submit(std::move(doomed));
  // Readiness only while parked (see TenantOverFairShareIsShed).
  const bool doomed_ready =
      doomed_future.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready;
  EXPECT_EQ(
      service.metrics().counter("rejected_deadline_infeasible").value(),
      1u);

  gate.Release();
  parked.get();
  EXPECT_TRUE(doomed_ready) << "not answered at admission";
  EXPECT_EQ(doomed_future.get().status,
            SolveStatus::kRejectedDeadlineInfeasible);
  EXPECT_EQ(filler.get().status, SolveStatus::kOk);
  service.Shutdown();
}

TEST(ServiceAdmission, PreemptDepthCapIsCountedNotSilent) {
  std::atomic<bool> slow_started{false};
  EngineRegistry registry;
  registry.RegisterFactory(
      "slow", [&](const Instance&, const EngineOptions&) {
        return std::make_unique<PacedEngine>(60, &slow_started);
      });
  registry.RegisterFactory(
      "fast", [](const Instance&, const EngineOptions&) {
        return std::make_unique<PacedEngine>(1, nullptr);
      });

  ServiceConfig config;
  config.workers = 1;
  config.cache_capacity = 0;
  config.preempt_slice = 2;
  config.max_preempt_depth = 0;  // preemption allowed by slice, barred by cap
  SolverService service(config, registry);

  SolveRequest low;
  low.id = 1;
  low.instance = cdd::testing::PaperExampleCdd();
  low.engine = "slow";
  low.priority = 0;
  std::future<SolveResponse> low_future = service.Submit(std::move(low));
  while (!slow_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  SolveRequest high;
  high.id = 2;
  high.instance = cdd::testing::PaperExampleCdd();
  high.engine = "fast";
  high.priority = 5;
  std::future<SolveResponse> high_future = service.Submit(std::move(high));

  // At depth cap 0 the worker may never pause the running solve: the
  // high-priority request waits its turn, and every slice boundary that
  // would have preempted is counted instead of silently skipped.
  EXPECT_EQ(low_future.get().status, SolveStatus::kOk);
  EXPECT_EQ(high_future.get().status, SolveStatus::kOk);
  EXPECT_EQ(service.metrics().counter("preemptions").value(), 0u);
  EXPECT_GE(service.metrics().counter("preempt_depth_limited").value(), 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace cdd::serve
