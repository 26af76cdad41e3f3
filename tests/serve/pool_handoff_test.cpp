/// Request-scoped pool handoff: the service lends one CandidatePool per
/// solve to engines that can stage their generations in it, with zero
/// copies on the host placement (pinned down by counting trace events),
/// modeled staging on the device placement, graceful host fallback when
/// the configured allocator fails, and bit-identical results on both
/// backends.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/pool_allocator.hpp"
#include "serve/service.hpp"
#include "trace/tracer.hpp"

namespace cdd::serve {
namespace {

SolveRequest Request(std::uint64_t id, const std::string& engine) {
  SolveRequest request;
  request.id = id;
  request.instance = cdd::testing::RandomCdd(12, 0.6, 100);
  request.engine = engine;
  request.options.generations = 60;
  request.options.seed = 7;
  return request;
}

std::size_t CountEvents(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  std::size_t count = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Runs one service over \p engines with tracing on and returns the
/// exported Chrome trace (workers joined first, so producers are
/// quiescent).  \p metrics_out receives the pool counters.
struct PoolCounters {
  std::uint64_t handoffs = 0;
  std::uint64_t staging_copies = 0;
  std::uint64_t fallbacks = 0;
};

std::string TracedRun(ServiceConfig config,
                      const std::vector<std::string>& engines,
                      PoolCounters* counters) {
  trace::ResetForTest();
  trace::SetEnabled(true);
  std::string json;
  {
    SolverService service(config);
    std::uint64_t id = 1;
    for (const std::string& engine : engines) {
      const SolveResponse response =
          service.Submit(Request(id++, engine)).get();
      EXPECT_EQ(response.status, SolveStatus::kOk) << engine;
    }
    counters->handoffs =
        service.metrics().counter("pool_handoffs").value();
    counters->staging_copies =
        service.metrics().counter("pool_staging_copies").value();
    counters->fallbacks =
        service.metrics().counter("pool_alloc_fallbacks").value();
    service.Shutdown();
  }
  trace::SetEnabled(false);
  std::ostringstream out;
  trace::ExportChromeTrace(out);
  return out.str();
}

TEST(PoolHandoff, HostPlacementLendsWithZeroCopies) {
  // The tentpole's zero-copy claim: a host-placed pool handed to two
  // different engines produces not a single modeled transfer — no
  // staging instants, no simulated H2D/D2H, no fallback.
  ServiceConfig config{.workers = 1};
  config.pool_backend = "host";
  PoolCounters counters;
  const std::string json = TracedRun(config, {"es", "dpso"}, &counters);

  EXPECT_EQ(counters.handoffs, 2u);
  EXPECT_EQ(counters.staging_copies, 0u);
  EXPECT_EQ(counters.fallbacks, 0u);
  EXPECT_EQ(CountEvents(json, "serve.pool_stage_h2d"), 0u);
  EXPECT_EQ(CountEvents(json, "serve.pool_stage_d2h"), 0u);
  EXPECT_EQ(CountEvents(json, "serve.pool_alloc_fallback"), 0u);
  EXPECT_EQ(CountEvents(json, "h2d"), 0u);  // no simulated transfers at all
  EXPECT_EQ(CountEvents(json, "d2h"), 0u);
}

TEST(PoolHandoff, DevicePlacementChargesStagingPerHandoff) {
  // A device-resident pool lent to a host engine pays the modeled bounce:
  // rows in (H2D) and costs out (D2H), once per handoff.
  ServiceConfig config{.workers = 1};
  config.pool_backend = "device";
  PoolCounters counters;
  const std::string json = TracedRun(config, {"es"}, &counters);
  EXPECT_EQ(counters.handoffs, 1u);
  EXPECT_EQ(counters.staging_copies, 2u);
  EXPECT_EQ(counters.fallbacks, 0u);
  EXPECT_EQ(CountEvents(json, "serve.pool_stage_h2d"), 1u);
  EXPECT_EQ(CountEvents(json, "serve.pool_stage_d2h"), 1u);
}

TEST(PoolHandoff, DevicePoolsAreReusedAcrossSameShapeRequests) {
  // Two uncached solves of same-shape instances on the device backend:
  // the second must be served from the idle-pool free-list instead of
  // allocating a fresh device pool.  Reuse changes allocation only — the
  // modeled staging bounce is still charged once per handoff.
  ServiceConfig config{.workers = 1};
  config.pool_backend = "device";
  SolverService service(config);
  SolveRequest first = Request(1, "es");
  SolveRequest second = Request(2, "es");
  second.options.seed = 99;  // different cache key, identical pool shape
  EXPECT_EQ(service.Submit(std::move(first)).get().status,
            SolveStatus::kOk);
  EXPECT_EQ(service.Submit(std::move(second)).get().status,
            SolveStatus::kOk);
  EXPECT_EQ(service.metrics().counter("pool_reuse_hits").value(), 1u);
  EXPECT_EQ(service.metrics().counter("pool_handoffs").value(), 2u);
  EXPECT_EQ(service.metrics().counter("pool_staging_copies").value(), 4u);
}

TEST(ExecConfig, ExplicitServiceBackendIsHonored) {
  // An explicit ServiceConfig::exec_backend bypasses the oversubscription
  // guard entirely; the resolved value is observable on the service.
  ServiceConfig config{.workers = 4};
  config.exec_backend = "host-parallel";
  {
    SolverService service(config);
    EXPECT_EQ(service.exec_backend(),
              sim::exec::ExecBackend::kHostParallel);
    EXPECT_EQ(service.metrics().counter("exec_clamped").value(), 0u);
  }
  config.exec_backend = "serial";
  SolverService service(config);
  EXPECT_EQ(service.exec_backend(), sim::exec::ExecBackend::kSerial);
  // A device engine still answers correctly under the explicit setting.
  const SolveResponse response = service.Submit(Request(1, "psa")).get();
  EXPECT_EQ(response.status, SolveStatus::kOk);
}

TEST(PoolHandoff, EnginesWithPrivateBuffersAreNotLentAPool) {
  // "host" runs its chains in place and borrows no rows.
  ServiceConfig config{.workers = 1};
  config.pool_backend = "device";
  PoolCounters counters;
  SolveRequest request = Request(1, "host");
  request.options.chains = 2;
  request.options.generations = 30;
  trace::ResetForTest();
  {
    SolverService service(config);
    const SolveResponse response = service.Submit(std::move(request)).get();
    EXPECT_EQ(response.status, SolveStatus::kOk);
    counters.handoffs = service.metrics().counter("pool_handoffs").value();
    counters.staging_copies =
        service.metrics().counter("pool_staging_copies").value();
  }
  EXPECT_EQ(counters.handoffs, 0u);
  EXPECT_EQ(counters.staging_copies, 0u);
}

/// Claims to be the device backend but never delivers memory, so the
/// fallback to host is a visible backend change.
class FailingAllocator final : public core::PoolAllocator {
 public:
  void* Allocate(std::size_t, std::size_t) override { return nullptr; }
  void Deallocate(void*, std::size_t) override {}
  core::PoolBackend backend() const override {
    return core::PoolBackend::kDevice;
  }
};

TEST(PoolHandoff, AllocatorFailureFallsBackToHostAndIsObservable) {
  // Reference answer from an ordinary host-placed service.
  ServiceConfig host_config{.workers = 1};
  host_config.pool_backend = "host";
  SolveResponse expected;
  {
    SolverService service(host_config);
    expected = service.Submit(Request(1, "es")).get();
    ASSERT_EQ(expected.status, SolveStatus::kOk);
  }

  FailingAllocator failing;
  ServiceConfig config{.workers = 1};
  config.pool_allocator = &failing;
  PoolCounters counters;
  const std::string json = TracedRun(config, {"es"}, &counters);

  // The request still succeeded (TracedRun asserts kOk), the degradation
  // was counted and traced, and the answer is the host answer, bit for
  // bit — fallback changes placement, never results.
  EXPECT_EQ(counters.handoffs, 1u);
  EXPECT_EQ(counters.fallbacks, 1u);
  EXPECT_EQ(counters.staging_copies, 0u);  // fell back to host: zero-copy
  EXPECT_EQ(CountEvents(json, "serve.pool_alloc_fallback"), 1u);
}

TEST(PoolHandoff, ResultsAreBitIdenticalAcrossAllBackends) {
  SolveResponse reference;
  {
    ServiceConfig config{.workers = 1};
    config.pool_backend = "host";
    SolverService service(config);
    reference = service.Submit(Request(1, "dpso")).get();
    ASSERT_EQ(reference.status, SolveStatus::kOk);
  }
  for (const std::string backend : {"host", "device"}) {
    ServiceConfig config{.workers = 1};
    config.pool_backend = backend;
    SolverService service(config);
    EXPECT_EQ(core::ToString(service.pool_backend()), backend);
    const SolveResponse response = service.Submit(Request(1, "dpso")).get();
    ASSERT_EQ(response.status, SolveStatus::kOk) << backend;
    EXPECT_EQ(response.result.best_cost, reference.result.best_cost)
        << backend;
    EXPECT_EQ(response.result.evaluations, reference.result.evaluations)
        << backend;
    EXPECT_EQ(response.result.best, reference.result.best) << backend;
  }
}

TEST(PoolHandoff, CapacityHintsMatchEngineNeeds) {
  EXPECT_GT(PoolCapacityHint("dpso"), 1u);
  EXPECT_GT(PoolCapacityHint("es"), 1u);
  // The serial chains (sa, ta and every chain of "host") score their one
  // row in place; the device engines keep their generations in device
  // buffers, on the far side of the bus.
  EXPECT_EQ(PoolCapacityHint("sa"), 0u);
  EXPECT_EQ(PoolCapacityHint("ta"), 0u);
  EXPECT_EQ(PoolCapacityHint("host"), 0u);
  EXPECT_EQ(PoolCapacityHint("psa"), 0u);
  EXPECT_EQ(PoolCapacityHint("pdpso"), 0u);
  EXPECT_EQ(PoolCapacityHint("psa-sync"), 0u);
  EXPECT_EQ(PoolCapacityHint("nonsense"), 0u);
}

}  // namespace
}  // namespace cdd::serve
