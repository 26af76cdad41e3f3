/// SolverService end-to-end: no request lost, backpressure, deadlines,
/// caching, shutdown-while-busy.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "core/sequence.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "trace/manifest.hpp"

namespace cdd::serve {
namespace {

using cdd::testing::StopPollingEngine;
using std::chrono::milliseconds;

SolveRequest SmallRequest(std::uint64_t id, std::uint32_t index = 0) {
  SolveRequest request;
  request.id = id;
  request.instance = cdd::testing::RandomCdd(12, 0.6, 100 + index);
  request.engine = "sa";
  request.options.generations = 100;
  request.options.seed = 7;
  return request;
}

TEST(SolverService, SolvesOneRequest) {
  SolverService service(ServiceConfig{.workers = 2});
  const SolveResponse response = service.Submit(SmallRequest(1)).get();
  EXPECT_EQ(response.id, 1u);
  EXPECT_EQ(response.status, SolveStatus::kOk);
  EXPECT_TRUE(response.ok());
  EXPECT_FALSE(response.from_cache);
  EXPECT_NO_THROW(ValidateSequence(response.result.best, 12));
  EXPECT_GE(response.solve_ms, 0.0);
}

TEST(SolverService, UnknownBackendNamesFailConstruction) {
  // A typo'd backend is a configuration error, not a silent fallback to
  // the environment default.
  ServiceConfig bad_pool;
  bad_pool.pool_backend = "bogus";
  EXPECT_THROW(SolverService{bad_pool}, std::invalid_argument);
  ServiceConfig bad_exec;
  bad_exec.exec_backend = "bogus";
  EXPECT_THROW(SolverService{bad_exec}, std::invalid_argument);
}

TEST(SolverService, RetiredPoolBackendNamesTheTwoPlacements) {
  // "numa" and "pinned" are not placements: the error lists the accepted
  // names instead of aliasing "host".
  ServiceConfig config;
  config.pool_backend = "numa";
  try {
    SolverService service(config);
    FAIL() << "constructor accepted pool_backend = numa";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("'numa'"), std::string::npos) << what;
    EXPECT_NE(what.find("host"), std::string::npos) << what;
    EXPECT_NE(what.find("device"), std::string::npos) << what;
  }
}

TEST(SolverService, ManifestRecordIsOnDiskWhenItsResponseIs) {
  // A record is flushed as it is written, so a reader sees it as soon as
  // the solve's future resolves — not only once the service shuts down.
  const std::string path =
      ::testing::TempDir() + "/service_manifest_flush_test.jsonl";
  std::remove(path.c_str());
  SolverService service(ServiceConfig{.workers = 1, .manifest_path = path});
  const SolveResponse response = service.Submit(SmallRequest(1)).get();
  ASSERT_EQ(response.status, SolveStatus::kOk);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "no record while the service runs";
  const trace::ManifestRecord record = trace::ParseManifestLine(line);
  EXPECT_EQ(record.engine, "sa");
  EXPECT_EQ(record.best_cost, response.result.best_cost);
  EXPECT_EQ(record.evaluations, response.result.evaluations);
  EXPECT_FALSE(std::getline(in, line)) << "one solve, one record";
  std::remove(path.c_str());
}

TEST(SolverService, UnopenableManifestPathFailsConstruction) {
  // A manifest that cannot be written is a configuration error, not a
  // service that silently records nothing.
  const std::string path =
      ::testing::TempDir() + "/no_such_dir_for_manifest/m.jsonl";
  try {
    SolverService service(ServiceConfig{.manifest_path = path});
    FAIL() << "constructor accepted manifest_path = " << path;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(SolverService, UnknownEngineRejectedImmediately) {
  SolverService service(ServiceConfig{.workers = 1});
  SolveRequest request = SmallRequest(2);
  request.engine = "does-not-exist";
  std::future<SolveResponse> future = service.Submit(std::move(request));
  // Rejections resolve synchronously — no worker involved.
  ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready);
  const SolveResponse response = future.get();
  EXPECT_EQ(response.status, SolveStatus::kRejectedUnknownEngine);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(
      service.metrics().counter("rejected_unknown_engine").value(), 1u);
}

TEST(SolverService, RestrictedUcddcpInstanceRejectedAtTheBoundary) {
  // The O(n) UCDDCP evaluator requires d >= sum(P_i); a violating
  // instance must be rejected synchronously with a diagnostic, never
  // handed to an engine (which would throw deep inside a worker).
  SolverService service(ServiceConfig{.workers = 1});
  SolveRequest request;
  request.id = 9;
  request.instance =
      Instance(Problem::kUcddcp, /*d=*/5, {6, 5, 2}, {7, 9, 6}, {9, 5, 4},
               {5, 5, 2}, {5, 4, 3});  // sum P = 13 > d
  request.engine = "sa";
  request.options.generations = 10;
  std::future<SolveResponse> future = service.Submit(std::move(request));
  ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready);
  const SolveResponse response = future.get();
  EXPECT_EQ(response.status, SolveStatus::kRejectedInvalidInstance);
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("restricted UCDDCP"), std::string::npos);
  EXPECT_NE(response.error.find("sum(P_i) = 13"), std::string::npos);
  EXPECT_EQ(
      service.metrics().counter("rejected_invalid_instance").value(), 1u);
}

TEST(SolverService, VariantInstanceWithUnsupportedEngineRejected) {
  // Pairing a parallel-machine or early-work instance with an engine
  // outside the support matrix (docs/WORKLOADS.md) is rejected
  // synchronously with the support diagnostic, never queued.
  SolverService service(ServiceConfig{.workers = 1});
  SolveRequest request = SmallRequest(21);
  request.engine = "dpso";
  request.instance = request.instance.with_machines(3);
  std::future<SolveResponse> future = service.Submit(std::move(request));
  ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready);
  const SolveResponse response = future.get();
  EXPECT_EQ(response.status, SolveStatus::kRejectedInvalidInstance);
  EXPECT_NE(response.error.find("parallel machines (m=3)"),
            std::string::npos)
      << response.error;
  EXPECT_NE(response.error.find("sa, ta"), std::string::npos);
  EXPECT_EQ(
      service.metrics().counter("rejected_invalid_instance").value(), 1u);

  SolveRequest early = SmallRequest(22);
  early.engine = "es";
  early.instance =
      early.instance.with_objective(ScheduleObjective::kEarlyWork);
  const SolveResponse early_response =
      service.Submit(std::move(early)).get();
  EXPECT_EQ(early_response.status, SolveStatus::kRejectedInvalidInstance);
  EXPECT_NE(early_response.error.find("early-work"), std::string::npos);
  EXPECT_EQ(
      service.metrics().counter("rejected_invalid_instance").value(), 2u);
}

TEST(SolverService, VariantInstanceWithSupportedEngineSolves) {
  SolverService service(ServiceConfig{.workers = 2});
  SolveRequest request = SmallRequest(23);
  request.engine = "ta";
  request.instance = request.instance.with_machines(2).with_objective(
      ScheduleObjective::kEarlyWork);
  const SolveResponse response = service.Submit(std::move(request)).get();
  EXPECT_EQ(response.status, SolveStatus::kOk);
  EXPECT_NO_THROW(ValidateSequence(response.result.best, 12));
  ASSERT_EQ(response.result.best_splits.size(), 1u);
  EXPECT_GE(response.result.best_splits[0], 0);
  EXPECT_LE(response.result.best_splits[0], 12);

  // The variant fields are part of the canonical key: the same request is
  // a cache hit, the single-machine twin is not.
  SolveRequest again = SmallRequest(24);
  again.engine = "ta";
  again.instance = again.instance.with_machines(2).with_objective(
      ScheduleObjective::kEarlyWork);
  const SolveResponse hit = service.Submit(std::move(again)).get();
  EXPECT_EQ(hit.status, SolveStatus::kCacheHit);
  EXPECT_EQ(hit.result.best_splits, response.result.best_splits);
  EXPECT_EQ(hit.result.best_cost, response.result.best_cost);

  SolveRequest plain = SmallRequest(25);
  plain.engine = "ta";
  const SolveResponse miss = service.Submit(std::move(plain)).get();
  EXPECT_EQ(miss.status, SolveStatus::kOk);
  EXPECT_TRUE(miss.result.best_splits.empty());
}

TEST(SolverService, UnrestrictedUcddcpInstancePassesValidation) {
  EXPECT_TRUE(
      ValidateRequestInstance(cdd::testing::RandomUcddcp(8, 1.2, 3))
          .empty());
  EXPECT_TRUE(ValidateRequestInstance(cdd::testing::RandomCdd(8, 0.4, 3))
                  .empty());  // restricted CDD is fine — only UCDDCP gates
}

TEST(SolverService, CacheHitIsBitIdenticalToFreshSolve) {
  SolverService service(ServiceConfig{.workers = 1});
  const SolveResponse first = service.Submit(SmallRequest(1)).get();
  ASSERT_EQ(first.status, SolveStatus::kOk);

  const SolveResponse second = service.Submit(SmallRequest(2)).get();
  EXPECT_EQ(second.status, SolveStatus::kCacheHit);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.result.best, first.result.best);
  EXPECT_EQ(second.result.best_cost, first.result.best_cost);
  EXPECT_EQ(service.metrics().counter("cache_hits").value(), 1u);
}

TEST(SolverService, DifferentOptionsDoNotShareCacheEntries) {
  SolverService service(ServiceConfig{.workers = 1});
  const SolveResponse a = service.Submit(SmallRequest(1)).get();
  ASSERT_EQ(a.status, SolveStatus::kOk);

  SolveRequest changed = SmallRequest(2);
  changed.options.seed = 8;  // result-determining → different key
  const SolveResponse b = service.Submit(std::move(changed)).get();
  EXPECT_EQ(b.status, SolveStatus::kOk);
  EXPECT_FALSE(b.from_cache);
}

// --- deadlines -------------------------------------------------------------

TEST(SolverService, DeadlineCancelsALongSaRunEarly) {
  SolverService service(ServiceConfig{.workers = 1});

  SolveRequest request;
  request.id = 9;
  request.instance = cdd::testing::RandomCdd(40, 0.6, 55);
  request.engine = "sa";
  // A budget that would take minutes if run to completion ...
  request.options.generations = 500'000'000;
  // ... against a 50 ms wall-clock deadline.
  request.deadline = milliseconds(50);

  const auto t0 = std::chrono::steady_clock::now();
  const SolveResponse response = service.Submit(std::move(request)).get();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // The run was provably cancelled early: it stopped with a fraction of
  // its budget spent, in wall time on the order of the deadline rather
  // than the budget.
  EXPECT_EQ(response.status, SolveStatus::kDeadlineExpired);
  EXPECT_TRUE(response.result.stopped);
  EXPECT_LT(response.result.evaluations, 500'000'000u);
  EXPECT_LT(wall_ms, 5000.0);

  // Best-so-far is still a usable schedule.
  EXPECT_TRUE(response.ok());
  EXPECT_NO_THROW(ValidateSequence(response.result.best, 40));
  EXPECT_EQ(service.metrics().counter("deadline_expired").value(), 1u);
}

TEST(SolverService, TruncatedRunsAreNotCached) {
  SolverService service(ServiceConfig{.workers = 1});

  SolveRequest truncated;
  truncated.instance = cdd::testing::RandomCdd(40, 0.6, 56);
  truncated.engine = "sa";
  truncated.options.generations = 500'000'000;
  truncated.deadline = milliseconds(30);
  const SolveResponse first = service.Submit(std::move(truncated)).get();
  ASSERT_EQ(first.status, SolveStatus::kDeadlineExpired);

  // Same canonical key (deadline is not part of it), sane budget this
  // time: must be a fresh solve, not the poisoned partial result.
  SolveRequest again;
  again.instance = cdd::testing::RandomCdd(40, 0.6, 56);
  again.engine = "sa";
  again.options.generations = 500'000'000;
  again.deadline = milliseconds(30);
  const SolveResponse second = service.Submit(std::move(again)).get();
  EXPECT_FALSE(second.from_cache);
  EXPECT_NE(second.status, SolveStatus::kCacheHit);
}

TEST(SolverService, DeadlineExpiredWhileQueuedSkipsTheSolve) {
  // One worker pinned on a slow job; a second job with a tiny deadline
  // waits behind it longer than its budget and must be answered without
  // ever running its engine.
  std::atomic<bool> release{false};
  EngineRegistry registry;
  registry.RegisterFactory(
      "slow", [&release](const Instance&, const EngineOptions& options) {
        return std::make_unique<StopPollingEngine>(options.stop, &release);
      });
  registry.RegisterFactory(
      "never-runs", [](const Instance&, const EngineOptions& options) {
        ADD_FAILURE() << "expired-in-queue request must not reach its engine";
        return std::make_unique<StopPollingEngine>(options.stop);
      });

  SolverService service(
      ServiceConfig{.workers = 1, .cache_capacity = 0}, registry);

  SolveRequest blocker;
  blocker.instance = cdd::testing::PaperExampleCdd();
  blocker.engine = "slow";
  std::future<SolveResponse> slow = service.Submit(std::move(blocker));

  std::this_thread::sleep_for(milliseconds(20));  // let the worker pick it up
  SolveRequest doomed;
  doomed.instance = cdd::testing::PaperExampleCdd();
  doomed.engine = "never-runs";
  doomed.deadline = milliseconds(10);
  std::future<SolveResponse> expired = service.Submit(std::move(doomed));

  std::this_thread::sleep_for(milliseconds(50));  // deadline passes in queue
  release.store(true);

  EXPECT_TRUE(slow.get().ok());
  const SolveResponse response = expired.get();
  EXPECT_EQ(response.status, SolveStatus::kDeadlineExpired);
  EXPECT_FALSE(response.ok());  // no solve ran: no best-so-far to return
}

// --- backpressure ----------------------------------------------------------

TEST(SolverService, FullQueueRejectsSynchronously) {
  std::atomic<bool> release{false};
  EngineRegistry registry;
  registry.RegisterFactory(
      "slow", [&release](const Instance&, const EngineOptions& options) {
        return std::make_unique<StopPollingEngine>(options.stop, &release);
      });

  SolverService service(
      ServiceConfig{.workers = 1, .queue_capacity = 2, .cache_capacity = 0},
      registry);

  // Occupy the worker, then fill the queue.  Distinct instances so the
  // cache fast path cannot interfere even in principle.
  std::vector<std::future<SolveResponse>> accepted;
  for (std::uint32_t i = 0; i < 8; ++i) {
    SolveRequest request;
    request.id = i;
    request.instance = cdd::testing::RandomCdd(6, 0.5, 200 + i);
    request.engine = "slow";
    accepted.push_back(service.Submit(std::move(request)));
  }

  // worker(1) + queue(2) = 3 can be in flight; give the worker a moment
  // to drain the first job off the queue, then everything else must have
  // been rejected synchronously.
  std::size_t rejected = 0;
  for (std::future<SolveResponse>& future : accepted) {
    if (future.wait_for(milliseconds(0)) == std::future_status::ready) {
      EXPECT_EQ(future.get().status, SolveStatus::kRejectedQueueFull);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 5u);  // 8 offered, at most 3 in flight
  EXPECT_EQ(service.metrics().counter("rejected_queue_full").value(),
            rejected);

  release.store(true);
  for (std::future<SolveResponse>& future : accepted) {
    if (future.valid() &&
        future.wait_for(milliseconds(0)) != std::future_status::ready) {
      EXPECT_TRUE(future.get().ok());
    }
  }
}

// --- shutdown --------------------------------------------------------------

TEST(SolverService, ShutdownDrainsQueuedWork) {
  SolverService service(ServiceConfig{.workers = 2});
  std::vector<std::future<SolveResponse>> futures;
  for (std::uint32_t i = 0; i < 12; ++i) {
    futures.push_back(service.Submit(SmallRequest(i, i)));
  }
  service.Shutdown();  // graceful: every accepted request completes
  for (std::future<SolveResponse>& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_TRUE(response.status == SolveStatus::kOk ||
                response.status == SolveStatus::kCacheHit)
        << ToString(response.status);
  }
  // After shutdown, new submissions are answered kShuttingDown (a closed
  // queue, distinct from backpressure on a live one), not queued.
  const SolveResponse late = service.Submit(SmallRequest(99, 99)).get();
  EXPECT_EQ(late.status, SolveStatus::kShuttingDown);
  EXPECT_EQ(service.metrics().counter("rejected_shutdown").value(), 1u);
  EXPECT_EQ(service.metrics().counter("rejected_queue_full").value(), 0u);
}

TEST(SolverService, CancelAllStopsBusyWorkersAndAnswersEveryFuture) {
  // Workers busy on cooperative engines + a queue of waiting jobs:
  // CancelAll must stop the running jobs through their tokens and answer
  // everything still queued with kShutdown — no future may hang.
  EngineRegistry registry;
  std::atomic<int> started{0};
  registry.RegisterFactory(
      "hang-until-stopped",
      [&started](const Instance&, const EngineOptions& options) {
        return std::make_unique<StopPollingEngine>(options.stop, nullptr,
                                                   &started);
      });

  SolverService service(
      ServiceConfig{.workers = 2, .cache_capacity = 0}, registry);

  std::vector<std::future<SolveResponse>> futures;
  for (std::uint32_t i = 0; i < 6; ++i) {
    SolveRequest request;
    request.id = i;
    request.instance = cdd::testing::RandomCdd(6, 0.5, 300 + i);
    request.engine = "hang-until-stopped";
    futures.push_back(service.Submit(std::move(request)));
  }

  // Wait until both workers are provably inside an engine run.
  while (started.load() < 2) std::this_thread::sleep_for(milliseconds(1));

  service.CancelAll();

  std::size_t resolved = 0;
  for (std::future<SolveResponse>& future : futures) {
    const SolveResponse response = future.get();  // must not hang
    ++resolved;
    EXPECT_EQ(response.status, SolveStatus::kShutdown)
        << ToString(response.status);
  }
  EXPECT_EQ(resolved, futures.size());
}

// --- the acceptance workload ----------------------------------------------

TEST(SolverService, ThousandMixedRequestsNoneLostCacheWarm) {
  // The ISSUE's acceptance bar: >= 1000 mixed CDD/UCDDCP requests with
  // 25% duplicates through a small service — every future resolves, zero
  // requests lost, and the duplicate traffic actually hits the cache.
  constexpr std::size_t kRequests = 1000;
  constexpr std::size_t kUnique = 750;  // 25% re-offers

  const orlib::BiskupFeldmannGenerator gen(/*seed=*/3);
  std::vector<SolveRequest> pool;
  pool.reserve(kUnique);
  for (std::uint32_t u = 0; u < kUnique; ++u) {
    SolveRequest request;
    request.instance = (u % 2 == 0)
                           ? gen.Cdd(10 + u % 11, u, 0.2 + 0.2 * (u % 4))
                           : gen.Ucddcp(10 + u % 11, u);
    request.engine = (u % 3 == 0) ? "ta" : (u % 3 == 1) ? "es" : "sa";
    request.options.generations = 60;
    request.options.seed = 1 + u % 5;
    pool.push_back(std::move(request));
  }

  SolverService service(ServiceConfig{.workers = 4, .queue_capacity = 32});

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> lost{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= kRequests) break;
      SolveRequest request = pool[k % kUnique];  // k >= kUnique: duplicate
      request.id = k;
      for (;;) {
        SolveRequest attempt = request;
        const SolveResponse response =
            service.Submit(std::move(attempt)).get();
        if (response.status == SolveStatus::kRejectedQueueFull) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;  // backpressure: retry, never drop
        }
        if (response.status == SolveStatus::kOk ||
            response.status == SolveStatus::kCacheHit) {
          resolved.fetch_add(1);
        } else {
          lost.fetch_add(1);
        }
        break;
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(resolved.load(), kRequests);
  EXPECT_EQ(lost.load(), 0u);

  const CacheStats cache = service.cache().stats();
  EXPECT_GT(cache.hits, 0u);  // the 25% duplicate traffic paid off
  // Every request was answered by exactly one of: a fresh solve, the
  // result cache, or a coalesced join onto an in-flight duplicate.  A
  // re-elected waiter counts twice (once joined, once completed), so it
  // is subtracted back out; nothing fails here, so it stays zero anyway.
  EXPECT_EQ(service.metrics().counter("completed").value() +
                service.metrics().counter("cache_hits").value() +
                service.metrics().counter("coalesced_joins").value() -
                service.metrics().counter("coalesce_reelected").value(),
            kRequests);
}

}  // namespace
}  // namespace cdd::serve
