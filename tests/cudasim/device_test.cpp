/// Device runtime tests: launch geometry, phased launches (shared memory
/// and charges across barriers), atomics, worker-pool equivalence, the
/// per-memory-space charges and the synchronize fence.

#include "cudasim/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
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
  EXPECT_THROW(gpu.LaunchPhases({1}, {32}, LaunchOptions{},
                                std::span<const KernelFn>{}),
               GpuError);  // no phases
  EXPECT_NO_THROW(gpu.Launch({1}, {1024}, [](ThreadCtx&) {}));
}

TEST(Device, SharedMemoryStagingWithBarrier) {
  // Block-wide staging pattern of the paper's fitness kernel, split at its
  // barrier: every thread stages one element in phase 0, then reads an
  // element staged by a *different* thread in phase 1.
  Device gpu;
  constexpr std::uint32_t kThreads = 64;
  std::vector<int> out(kThreads * 2, -1);
  int* results = out.data();

  LaunchOptions opts;
  opts.shared_bytes = kThreads * sizeof(int);
  const KernelFn phases[] = {
      [](ThreadCtx& t) {
        const std::uint32_t lt = t.linear_thread();
        t.shared_as<int>()[lt] = static_cast<int>(lt) * 10;
      },
      [results](ThreadCtx& t) {
        // Read the neighbour's value: impossible without the barrier.
        const std::uint32_t lt = t.linear_thread();
        results[t.global_thread()] = t.shared_as<int>()[(lt + 1) % kThreads];
      }};
  gpu.LaunchPhases({2}, {kThreads}, opts, phases);

  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(out[b * kThreads + i],
                static_cast<int>((i + 1) % kThreads) * 10);
    }
  }
}

TEST(Device, MultipleBarriersStayInLockstep) {
  // Ten phases (five rounds of "thread 0 bumps, everyone checks"): every
  // thread must observe the same round count, and the threads of a phase
  // run in linear order.
  Device gpu;
  constexpr std::uint32_t kThreads = 32;
  std::vector<int> counter(1, 0);
  std::vector<int> observed(kThreads, -1);
  std::vector<std::uint32_t> order;
  int* cnt = counter.data();
  int* obs = observed.data();

  std::vector<KernelFn> phases;
  for (int round = 0; round < 5; ++round) {
    phases.emplace_back([cnt, &order](ThreadCtx& t) {
      if (t.linear_thread() == 0) *cnt += 1;
      order.push_back(t.linear_thread());
    });
    phases.emplace_back([cnt, obs, round](ThreadCtx& t) {
      if (*cnt != round + 1) obs[t.linear_thread()] = round;
    });
  }
  gpu.LaunchPhases({1}, {kThreads}, LaunchOptions{}, phases);
  for (const int o : observed) EXPECT_EQ(o, -1);
  ASSERT_EQ(order.size(), 5u * kThreads);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % kThreads) << i;
  }
}

TEST(Device, SharedMemoryIsZeroedPerBlockAndKeptAcrossPhases) {
  // Each block starts from zeroed shared memory, whatever the previous
  // block (on this host thread) left there; within a block, an entry
  // written in phase 0 survives an untouched phase 1 into phase 2.
  Device gpu;
  gpu.set_worker_threads(1);
  constexpr std::uint32_t kBlocks = 3;
  constexpr std::uint32_t kThreads = 8;
  std::vector<int> dirty(kBlocks, 0);
  std::vector<int> seen(kBlocks * kThreads, 0);
  int* d = dirty.data();
  int* out = seen.data();
  LaunchOptions opts;
  opts.shared_bytes = kThreads * sizeof(int);
  const KernelFn phases[] = {
      [d](ThreadCtx& t) {
        int* smem = t.shared_as<int>();
        if (smem[t.linear_thread()] != 0) d[t.linear_block()] = 1;
        smem[t.linear_thread()] = static_cast<int>(t.global_thread()) + 7;
      },
      [](ThreadCtx&) {},
      [out](ThreadCtx& t) {
        out[t.global_thread()] = t.shared_as<int>()[t.linear_thread()];
      }};
  gpu.LaunchPhases({kBlocks}, {kThreads}, opts, phases);
  for (const int x : dirty) EXPECT_EQ(x, 0);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i) + 7) << i;
  }
}

TEST(Device, ChargesAccumulateAcrossPhases) {
  // A thread's charge is its total over all phases: a kernel that charges
  // in two phases must cost exactly what a one-phase kernel charging the
  // same per-thread totals costs (work units and modeled seconds), both
  // serially and over two host workers.  Thread t charges t + 1 in phase 0
  // and 3 * t in phase 1 (so the maximum is thread 31's, not thread 0's).
  for (const unsigned workers : {1u, 2u}) {
    Device gpu;
    gpu.set_worker_threads(workers);
    const Dim3 grid{4};
    const Dim3 block{32};
    LaunchOptions two;
    two.name = "two_phases";
    const KernelFn phases[] = {
        [](ThreadCtx& t) {
          EXPECT_EQ(t.charged(), 0u);
          t.charge(t.linear_thread() + 1);
        },
        [](ThreadCtx& t) {
          EXPECT_EQ(t.charged(), t.linear_thread() + 1u);
          t.charge(3 * t.linear_thread());
        }};
    gpu.LaunchPhases(grid, block, two, phases);
    LaunchOptions one;
    one.name = "one_phase";
    gpu.Launch(grid, block, one, [](ThreadCtx& t) {
      t.charge(4 * t.linear_thread() + 1);
    });
    const KernelRecord* split = gpu.profiler().Find("two_phases");
    const KernelRecord* whole = gpu.profiler().Find("one_phase");
    ASSERT_NE(split, nullptr);
    ASSERT_NE(whole, nullptr);
    EXPECT_EQ(split->work_units, whole->work_units);
    EXPECT_EQ(split->sim_time_s, whole->sim_time_s);
    // 4 blocks x sum over t < 32 of (4t + 1), and a maximum of 125.
    EXPECT_EQ(whole->work_units, 4u * (4u * 496u + 32u));
    const TimingModel model(gpu.properties());
    EXPECT_EQ(whole->sim_time_s,
              model.KernelSeconds(
                  LaunchCharge{grid, block, whole->work_units, 125, 0}));
    // A runner that kept a per-phase maximum (93) would model less time.
    EXPECT_NE(split->sim_time_s,
              model.KernelSeconds(
                  LaunchCharge{grid, block, whole->work_units, 93, 0}));
  }
}

TEST(Device, KernelExceptionPropagatesAndDeviceStaysUsable) {
  Device gpu;
  const KernelFn failing[] = {
      [](ThreadCtx&) {},
      [](ThreadCtx& t) {
        if (t.linear_thread() == 3) throw std::runtime_error("boom");
      },
      [](ThreadCtx&) { ADD_FAILURE() << "phase after a throw ran"; }};
  EXPECT_THROW(gpu.LaunchPhases({1}, {8}, LaunchOptions{}, failing),
               std::runtime_error);
  // The device must survive for the next launch.
  std::vector<int> ok(8, 0);
  int* data = ok.data();
  const KernelFn phases[] = {
      [data](ThreadCtx& t) { data[t.linear_thread()] = 1; },
      [](ThreadCtx&) {}};
  EXPECT_NO_THROW(gpu.LaunchPhases({1}, {8}, LaunchOptions{}, phases));
  EXPECT_EQ(std::accumulate(ok.begin(), ok.end(), 0), 8);
}

TEST(Device, AtomicsAreCorrectUnderContention) {
  Device gpu;
  gpu.set_worker_threads(4);  // exercise real host-thread contention
  std::int64_t sum = 0;
  std::int64_t mini = 1 << 30;
  gpu.Launch({32}, {64}, [&](ThreadCtx& t) {
    const auto tid = static_cast<std::int64_t>(t.global_thread());
    AtomicAdd(&sum, tid);
    AtomicMin(&mini, tid);
  });
  const std::int64_t n = 32 * 64;
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(mini, 0);
}

TEST(Device, WorkerCountDoesNotChangeResults) {
  // Same two-phase kernel, 1 vs 4 workers: identical output buffers
  // (block-level determinism — the algorithms only write thread-private
  // rows).
  const auto run = [](unsigned workers) {
    Device gpu;
    gpu.set_worker_threads(workers);
    std::vector<std::uint64_t> out(16 * 32, 0);
    std::uint64_t* data = out.data();
    const KernelFn phases[] = {
        [data](ThreadCtx& t) {
          const std::uint64_t tid = t.global_thread();
          data[tid] = tid * 2654435761u;
        },
        [data](ThreadCtx& t) {
          data[t.global_thread()] ^= t.linear_block();
        }};
    gpu.LaunchPhases({16}, {32}, LaunchOptions{}, phases);
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

TEST(Device, SynchronizeChargesOneLaunchOverhead) {
  Device gpu;
  gpu.Launch({4}, {64}, [](ThreadCtx& t) { t.charge(1000); });
  const double before = gpu.sim_time_s();
  gpu.Synchronize();
  EXPECT_EQ(gpu.sim_time_s(), before + gpu.properties().launch_overhead_s);
}

TEST(MemorySpaceCharges, OrderingGlobalTextureShared) {
  // Same nominal work, different memory paths: global costs the most,
  // shared the least, texture in between (Section IX's hypothesis).
  const auto run = [](void (ThreadCtx::*charge)(std::uint64_t)) {
    Device gpu;
    gpu.Launch({4}, {64}, [charge](ThreadCtx& t) {
      (t.*charge)(100000);
    });
    return gpu.sim_time_s();
  };
  const double global_t = run(&ThreadCtx::charge);
  const double texture_t = run(&ThreadCtx::charge_texture);
  const double shared_t = run(&ThreadCtx::charge_shared);
  EXPECT_LT(texture_t, global_t);
  EXPECT_LT(shared_t, texture_t);
}

TEST(MemorySpaceCharges, FactorsApplyExactly) {
  Device gpu;
  std::uint64_t observed = 0;
  gpu.Launch({1}, {1}, [&](ThreadCtx& t) {
    t.charge_texture(1000);
    observed = t.charged();
  });
  const double factor = gpu.properties().texture_cost_factor;
  EXPECT_EQ(observed,
            static_cast<std::uint64_t>(1000.0 * factor + 0.5));
}

}  // namespace
}  // namespace cdd::sim
