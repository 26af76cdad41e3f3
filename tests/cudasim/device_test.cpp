/// Device runtime tests: launch geometry, shared memory + barriers,
/// atomics, divergence detection, worker-pool equivalence.

#include "cudasim/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cudasim/atomics.hpp"
#include "cudasim/memory.hpp"

namespace cdd::sim {
namespace {

TEST(Device, ThreadIndexingCoversGridExactlyOnce) {
  Device gpu;
  const Dim3 grid{3, 2, 1};
  const Dim3 block{4, 2, 2};
  const std::size_t total = grid.count() * block.count();
  std::vector<int> hits(total, 0);
  int* data = hits.data();
  gpu.Launch(grid, block, [&, data](ThreadCtx& t) {
    data[t.global_thread()] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(total));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, PlainLaunchGivesEachThreadItsIndicesAndCharge) {
  // A plain launch runs a block's threads on one reused context.  Each
  // thread must still see its own indices and report only its own charge,
  // on 3-D blocks and 1-D ones, serially and over two host workers.
  for (const Dim3 block : {Dim3{4, 3, 2}, Dim3{24}}) {
    for (const unsigned workers : {1u, 2u}) {
      Device gpu;
      gpu.set_worker_threads(workers);
      const Dim3 grid{2, 2};
      const std::size_t total = grid.count() * block.count();
      std::vector<Dim3> thread_seen(total, Dim3{0, 0, 0});
      std::vector<Dim3> block_seen(total, Dim3{0, 0, 0});
      std::vector<int> hits(total, 0);
      LaunchOptions opts;
      opts.name = "plain";
      gpu.Launch(grid, block, opts, [&](ThreadCtx& t) {
        const std::uint64_t tid = t.global_thread();
        if (tid >= total) {
          ADD_FAILURE() << "global_thread() " << tid << " out of range";
          return;
        }
        EXPECT_EQ(t.charged(), 0u);
        thread_seen[tid] = t.thread_idx;
        block_seen[tid] = t.block_idx;
        ++hits[tid];
        t.charge(tid * tid + 1);
      });
      std::uint64_t sum = 0;
      std::uint64_t max = 0;
      for (std::size_t tid = 0; tid < total; ++tid) {
        EXPECT_EQ(hits[tid], 1) << tid;
        const std::size_t lt = tid % block.count();
        const std::size_t lb = tid / block.count();
        EXPECT_EQ(thread_seen[tid].x, lt % block.x) << tid;
        EXPECT_EQ(thread_seen[tid].y, lt / block.x % block.y) << tid;
        EXPECT_EQ(thread_seen[tid].z, lt / block.x / block.y) << tid;
        EXPECT_EQ(block_seen[tid].x, lb % grid.x) << tid;
        EXPECT_EQ(block_seen[tid].y, lb / grid.x) << tid;
        EXPECT_EQ(block_seen[tid].z, 0u) << tid;
        sum += tid * tid + 1;
        max = std::max<std::uint64_t>(max, tid * tid + 1);
      }
      const KernelRecord* rec = gpu.profiler().Find("plain");
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->work_units, sum);
      // The modeled time is a function of the sum and the maximum.
      const TimingModel model(gpu.properties());
      EXPECT_EQ(rec->sim_time_s,
                model.KernelSeconds(LaunchCharge{grid, block, sum, max, 0}));
      EXPECT_NE(rec->sim_time_s,
                model.KernelSeconds(LaunchCharge{grid, block, sum, sum, 0}));
    }
  }
}

TEST(Device, LaunchValidationRejectsBadGeometry) {
  Device gpu(GeForceGT560M());
  EXPECT_THROW(gpu.Launch({1}, {2048}, [](ThreadCtx&) {}), GpuError);
  EXPECT_THROW(gpu.Launch({0}, {32}, [](ThreadCtx&) {}), GpuError);
  LaunchOptions opts;
  opts.shared_bytes = 1 << 20;  // 1 MiB > 48 KiB limit
  EXPECT_THROW(gpu.Launch({1}, {32}, opts, [](ThreadCtx&) {}), GpuError);
  EXPECT_NO_THROW(gpu.Launch({1}, {1024}, [](ThreadCtx&) {}));
}

TEST(Device, SharedMemoryStagingWithBarrier) {
  // Block-cooperative pattern of the paper's fitness kernel: every thread
  // stages one element, synchronizes, then reads an element staged by a
  // *different* thread.
  Device gpu;
  constexpr std::uint32_t kThreads = 64;
  std::vector<int> out(kThreads * 2, -1);
  int* results = out.data();

  LaunchOptions opts;
  opts.cooperative = true;
  opts.shared_bytes = kThreads * sizeof(int);
  gpu.Launch({2}, {kThreads}, opts, [results](ThreadCtx& t) {
    int* smem = t.shared_as<int>();
    const std::uint32_t lt = t.linear_thread();
    smem[lt] = static_cast<int>(lt) * 10;
    t.syncthreads();
    // Read the neighbour's value: impossible without the barrier.
    results[t.global_thread()] = smem[(lt + 1) % kThreads];
  });

  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(out[b * kThreads + i],
                static_cast<int>((i + 1) % kThreads) * 10);
    }
  }
}

TEST(Device, MultipleBarriersStayInLockstep) {
  Device gpu;
  constexpr std::uint32_t kThreads = 32;
  std::vector<int> counter(1, 0);
  std::vector<int> observed(kThreads, -1);
  int* cnt = counter.data();
  int* obs = observed.data();

  LaunchOptions opts;
  opts.cooperative = true;
  gpu.Launch({1}, {kThreads}, opts, [cnt, obs](ThreadCtx& t) {
    for (int phase = 0; phase < 5; ++phase) {
      if (t.linear_thread() == 0) *cnt += 1;
      t.syncthreads();
      // Every thread must observe the same phase count.
      if (*cnt != phase + 1) obs[t.linear_thread()] = phase;
      t.syncthreads();
    }
  });
  for (const int o : observed) EXPECT_EQ(o, -1);
}

TEST(Device, BarrierDivergenceIsDetected) {
  Device gpu;
  LaunchOptions opts;
  opts.cooperative = true;
  EXPECT_THROW(
      gpu.Launch({1}, {4}, opts,
                 [](ThreadCtx& t) {
                   if (t.linear_thread() == 0) return;  // thread 0 exits
                   t.syncthreads();  // others wait forever -> UB, detected
                 }),
      GpuError);
}

TEST(Device, SyncthreadsOutsideCooperativeLaunchThrows) {
  Device gpu;
  EXPECT_THROW(
      gpu.Launch({1}, {4}, [](ThreadCtx& t) { t.syncthreads(); }),
      GpuError);
  // Single-thread blocks are trivially synchronized.
  EXPECT_NO_THROW(
      gpu.Launch({2}, {1}, [](ThreadCtx& t) { t.syncthreads(); }));
}

TEST(Device, KernelExceptionPropagatesAndDeviceStaysUsable) {
  Device gpu;
  LaunchOptions opts;
  opts.cooperative = true;
  EXPECT_THROW(gpu.Launch({1}, {8}, opts,
                          [](ThreadCtx& t) {
                            if (t.linear_thread() == 3) {
                              throw std::runtime_error("boom");
                            }
                            t.syncthreads();
                          }),
               std::runtime_error);
  // The device must survive for the next launch.
  std::vector<int> ok(8, 0);
  int* data = ok.data();
  EXPECT_NO_THROW(gpu.Launch({1}, {8}, opts, [data](ThreadCtx& t) {
    data[t.linear_thread()] = 1;
    t.syncthreads();
  }));
  EXPECT_EQ(std::accumulate(ok.begin(), ok.end(), 0), 8);
}

TEST(Device, CustomFiberStackSizeOnTheSerialPath) {
  // A body that needs more than the default 64 KiB of stack runs with a
  // larger fiber_stack_bytes, launch after launch, interleaved with
  // default-size launches and a failing one.
  Device gpu;
  gpu.set_worker_threads(1);
  LaunchOptions big;
  big.cooperative = true;
  big.fiber_stack_bytes = 256 * 1024;
  LaunchOptions small;
  small.cooperative = true;
  constexpr std::uint32_t kThreads = 8;
  std::vector<long long> sums(kThreads, 0);
  long long* out = sums.data();
  const auto deep = [out](ThreadCtx& t) {
    volatile unsigned char buffer[96 * 1024];
    for (std::size_t i = 0; i < sizeof buffer; ++i) {
      buffer[i] = static_cast<unsigned char>(i + t.linear_thread());
    }
    t.syncthreads();
    long long sum = 0;
    for (std::size_t i = 0; i < sizeof buffer; i += 4096) sum += buffer[i];
    out[t.linear_thread()] = sum;
  };
  for (int round = 0; round < 3; ++round) {
    gpu.Launch({2}, {kThreads}, big, deep);
    gpu.Launch({2}, {kThreads}, small,
               [](ThreadCtx& t) { t.syncthreads(); });
  }
  EXPECT_THROW(gpu.Launch({1}, {kThreads}, big,
                          [](ThreadCtx& t) {
                            t.syncthreads();
                            if (t.linear_thread() == 2) {
                              throw std::runtime_error("boom");
                            }
                          }),
               std::runtime_error);
  std::fill(sums.begin(), sums.end(), 0);
  gpu.Launch({1}, {kThreads}, big, deep);
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    long long expected = 0;
    for (std::size_t j = 0; j < 96 * 1024; j += 4096) {
      expected += static_cast<unsigned char>(j + i);
    }
    EXPECT_EQ(sums[i], expected) << "thread " << i;
  }
}

TEST(Device, AtomicsAreCorrectUnderContention) {
  Device gpu;
  gpu.set_worker_threads(4);  // exercise real host-thread contention
  std::int64_t sum = 0;
  std::int64_t mini = 1 << 30;
  std::int64_t maxi = -1;
  gpu.Launch({32}, {64}, [&](ThreadCtx& t) {
    const auto tid = static_cast<std::int64_t>(t.global_thread());
    AtomicAdd(&sum, tid);
    AtomicMin(&mini, tid);
    AtomicMax(&maxi, tid);
  });
  const std::int64_t n = 32 * 64;
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(mini, 0);
  EXPECT_EQ(maxi, n - 1);
}

TEST(Device, AtomicCasAndExchange) {
  std::int64_t word = 5;
  EXPECT_EQ(AtomicCas<std::int64_t>(&word, 5, 9), 5);  // succeeded: old
  EXPECT_EQ(word, 9);
  EXPECT_EQ(AtomicCas<std::int64_t>(&word, 5, 1), 9);  // failed: current
  EXPECT_EQ(word, 9);
  EXPECT_EQ(AtomicExch<std::int64_t>(&word, 2), 9);
  EXPECT_EQ(word, 2);
}

TEST(Device, WorkerCountDoesNotChangeResults) {
  // Same kernel, 1 vs 4 workers: identical output buffers (block-level
  // determinism — the algorithms only write thread-private rows).
  const auto run = [](unsigned workers) {
    Device gpu;
    gpu.set_worker_threads(workers);
    std::vector<std::uint64_t> out(16 * 32, 0);
    std::uint64_t* data = out.data();
    LaunchOptions opts;
    opts.cooperative = true;
    gpu.Launch({16}, {32}, opts, [data](ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      data[tid] = tid * 2654435761u;
      t.syncthreads();
      data[tid] ^= t.linear_block();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Device, ChargeAccumulatesIntoProfiler) {
  Device gpu;
  LaunchOptions opts;
  opts.name = "charged_kernel";
  gpu.Launch({2}, {16}, opts, [](ThreadCtx& t) { t.charge(10); });
  const KernelRecord* rec = gpu.profiler().Find("charged_kernel");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->launches, 1u);
  EXPECT_EQ(rec->blocks, 2u);
  EXPECT_EQ(rec->threads, 32u);
  EXPECT_EQ(rec->work_units, 320u);
  EXPECT_GT(rec->sim_time_s, 0.0);
}

TEST(Device, SimulatedClockAdvancesWithWork) {
  Device gpu;
  const double t0 = gpu.sim_time_s();
  gpu.Launch({4}, {192}, [](ThreadCtx& t) { t.charge(1000); });
  const double t1 = gpu.sim_time_s();
  EXPECT_GT(t1, t0);
  gpu.Launch({4}, {192}, [](ThreadCtx& t) { t.charge(100000); });
  const double t2 = gpu.sim_time_s();
  EXPECT_GT(t2 - t1, t1 - t0);  // 100x work => more simulated time
}

}  // namespace
}  // namespace cdd::sim
