/// PoolAllocator backends: naming, alignment, transfer-cost model, the
/// CandidatePool host-fallback rule, capacity-0 clamping and PoolLease
/// borrowing.

#include "core/pool_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/candidate_pool.hpp"
#include "core/env_config.hpp"

namespace cdd::core {
namespace {

constexpr PoolBackend kAllBackends[] = {PoolBackend::kHost,
                                       PoolBackend::kDevice};

TEST(PoolAllocator, ToStringParseRoundTrip) {
  for (const PoolBackend backend : kAllBackends) {
    PoolBackend parsed = PoolBackend::kHost;
    ASSERT_TRUE(ParsePoolBackend(ToString(backend), &parsed))
        << ToString(backend);
    EXPECT_EQ(parsed, backend);
  }
  PoolBackend untouched = PoolBackend::kDevice;
  EXPECT_FALSE(ParsePoolBackend("bogus", &untouched));
  EXPECT_FALSE(ParsePoolBackend("", &untouched));
  EXPECT_EQ(untouched, PoolBackend::kDevice);  // failure leaves *out alone
}

TEST(PoolAllocator, SingletonsMatchTheirBackend) {
  for (const PoolBackend backend : kAllBackends) {
    PoolAllocator& allocator = PoolAllocatorFor(backend);
    EXPECT_EQ(allocator.backend(), backend);
    EXPECT_EQ(allocator.name(), ToString(backend));
    // Process-lifetime singleton: same object every time.
    EXPECT_EQ(&allocator, &PoolAllocatorFor(backend));
  }
}

TEST(PoolAllocator, ActiveBackendDefaultsToHostWithoutEnvOverride) {
  if (EnvText(kPoolBackendEnv)) {
    GTEST_SKIP() << "CDD_POOL_BACKEND is set in this environment";
  }
  EXPECT_EQ(ActivePoolBackend(), PoolBackend::kHost);
  EXPECT_EQ(&ActivePoolAllocator(),
            &PoolAllocatorFor(PoolBackend::kHost));
}

TEST(PoolAllocator, EveryBackendHandsOutAlignedWritableMemory) {
  for (const PoolBackend backend : kAllBackends) {
    PoolAllocator& allocator = PoolAllocatorFor(backend);
    const std::size_t bytes = 1000;
    void* ptr = allocator.Allocate(bytes, 64);
    ASSERT_NE(ptr, nullptr) << ToString(backend);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % 64, 0u)
        << ToString(backend);
    std::memset(ptr, 0xAB, bytes);  // must be real, writable memory
    EXPECT_EQ(static_cast<unsigned char*>(ptr)[bytes - 1], 0xAB);
    allocator.Deallocate(ptr, bytes);
  }
}

TEST(PoolAllocator, TransferCostMatrix) {
  // Pageable host memory: free for the CPU, staged for the device.
  EXPECT_FALSE(TransferCost(PoolBackend::kHost).host_staging);
  EXPECT_TRUE(TransferCost(PoolBackend::kHost).device_staging);
  // Device-resident memory flips the cost: kernels free, host staged.
  EXPECT_TRUE(TransferCost(PoolBackend::kDevice).host_staging);
  EXPECT_FALSE(TransferCost(PoolBackend::kDevice).device_staging);
}

TEST(PoolAllocator, GlobalStatsCountAllocations) {
  PoolAllocStats& stats = GlobalPoolStats();
  const std::uint64_t allocations = stats.allocations.load();
  const std::uint64_t bytes = stats.bytes.load();
  PoolAllocator& host = PoolAllocatorFor(PoolBackend::kHost);
  void* ptr = host.Allocate(256, 64);
  ASSERT_NE(ptr, nullptr);
  EXPECT_EQ(stats.allocations.load(), allocations + 1);
  EXPECT_EQ(stats.bytes.load(), bytes + 256);
  host.Deallocate(ptr, 256);
}

/// An allocator whose backend claims kDevice but which can never deliver —
/// the injection point for the CandidatePool fallback rule.
class FailingAllocator final : public PoolAllocator {
 public:
  void* Allocate(std::size_t, std::size_t) override {
    ++attempts;
    return nullptr;
  }
  void Deallocate(void*, std::size_t) override { ++deallocations; }
  PoolBackend backend() const override { return PoolBackend::kDevice; }

  int attempts = 0;
  int deallocations = 0;
};

TEST(PoolAllocator, FailedAllocationFallsBackToHostGracefully) {
  FailingAllocator failing;
  const std::uint64_t fallbacks_before = GlobalPoolStats().fallbacks.load();

  CandidatePool pool(/*n=*/8, /*capacity=*/4, failing);
  EXPECT_EQ(failing.attempts, 1);
  EXPECT_EQ(failing.deallocations, 0);  // nothing to free from a failure
  // The pool degraded to plain host pages — and says so.  (The `failures`
  // counter is the *allocator's* duty, so this injected one skips it; the
  // fallback decision is the pool's and must always be counted.)
  EXPECT_EQ(pool.backend(), PoolBackend::kHost);
  EXPECT_EQ(GlobalPoolStats().fallbacks.load(), fallbacks_before + 1);

  // The fallback pool is fully usable.
  std::vector<JobId> seq = {3, 1, 4, 1, 5, 2, 6, 0};
  const std::size_t row = pool.Append(seq);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.row(row)[4], 5);
  EXPECT_TRUE(pool.view().current());
}

TEST(PoolAllocator, CapacityZeroPoolsClampToOneRowOnEveryBackend) {
  for (const PoolBackend backend : kAllBackends) {
    CandidatePool pool(/*n=*/6, /*capacity=*/0, PoolAllocatorFor(backend));
    EXPECT_GE(pool.capacity(), 1u) << ToString(backend);
    EXPECT_EQ(pool.backend(), backend);
    std::vector<JobId> seq = {5, 4, 3, 2, 1, 0};
    pool.Append(seq);
    EXPECT_EQ(pool.row(0)[0], 5) << ToString(backend);
  }
}

TEST(PoolAllocator, DeviceBackedPoolViewsSurviveSwapBuffers) {
  // Regression: device-resident double buffers swap on-device, so a
  // kDevice-tagged view must stay `current()` across SwapBuffers() — the
  // generation staleness assert is a host-aliasing guard only.
  CandidatePool device_pool(/*n=*/4, /*capacity=*/2,
                            PoolAllocatorFor(PoolBackend::kDevice));
  const CandidatePoolView device_view = device_pool.view();
  EXPECT_EQ(device_view.backend, PoolBackend::kDevice);
  device_pool.SwapBuffers();
  EXPECT_TRUE(device_view.current());

  // ...while host-backed views do go stale, as before.
  CandidatePool host_pool(/*n=*/4, /*capacity=*/2,
                          PoolAllocatorFor(PoolBackend::kHost));
  const CandidatePoolView host_view = host_pool.view();
  host_pool.SwapBuffers();
  EXPECT_FALSE(host_view.current());
}

TEST(PoolAllocator, PoolLayoutIsIdenticalAcrossBackends) {
  // The bit-identical-results guarantee rests on every backend handing out
  // the same geometry: same stride, same clamped capacity, same contents.
  std::vector<JobId> seq = {7, 0, 6, 1, 5, 2, 4, 3, 8};
  CandidatePool reference(/*n=*/9, /*capacity=*/3,
                          PoolAllocatorFor(PoolBackend::kHost));
  reference.Append(seq);
  for (const PoolBackend backend : kAllBackends) {
    CandidatePool pool(/*n=*/9, /*capacity=*/3, PoolAllocatorFor(backend));
    pool.Append(seq);
    EXPECT_EQ(pool.view().stride, reference.view().stride)
        << ToString(backend);
    EXPECT_EQ(pool.capacity(), reference.capacity()) << ToString(backend);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ASSERT_EQ(pool.row(0)[i], reference.row(0)[i]) << ToString(backend);
    }
  }
}

TEST(PoolLease, BorrowsACompatibleLentPool) {
  CandidatePool lent(/*n=*/8, /*capacity=*/4);
  std::vector<JobId> seq = {0, 1, 2, 3, 4, 5, 6, 7};
  lent.Append(seq);  // stale content the borrower must not see

  PoolLease lease(&lent, /*n=*/8, /*capacity=*/2);
  EXPECT_TRUE(lease.borrowed());
  EXPECT_EQ(&*lease, &lent);
  EXPECT_EQ(lease->size(), 0u);  // borrowing clears the pool
}

TEST(PoolLease, OwnsWhenLentPoolIsAbsentOrIncompatible) {
  PoolLease unlent(nullptr, /*n=*/8, /*capacity=*/2);
  EXPECT_FALSE(unlent.borrowed());
  EXPECT_EQ(unlent->n(), 8u);
  EXPECT_GE(unlent->capacity(), 2u);

  CandidatePool small(/*n=*/8, /*capacity=*/1);
  PoolLease too_small(&small, /*n=*/8, /*capacity=*/4);
  EXPECT_FALSE(too_small.borrowed());  // capacity shortfall -> private pool
  EXPECT_NE(&*too_small, &small);

  CandidatePool wrong_n(/*n=*/6, /*capacity=*/4);
  PoolLease mismatched(&wrong_n, /*n=*/8, /*capacity=*/2);
  EXPECT_FALSE(mismatched.borrowed());  // n mismatch -> private pool
  EXPECT_EQ(mismatched->n(), 8u);
}

}  // namespace
}  // namespace cdd::core
