/// \file bench_micro_cudasim.cpp
/// \brief GPU-simulator microbenchmarks: host-side cost of kernel launch,
/// fiber barriers, and atomic reduction — the simulator's own overheads,
/// kept separate from the modeled device time.

#include <benchmark/benchmark.h>

#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"

namespace {

using cdd::sim::Device;
using cdd::sim::LaunchOptions;
using cdd::sim::ThreadCtx;

void BM_EmptyKernelLaunch(benchmark::State& state) {
  Device gpu;
  const auto blocks = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    gpu.Launch({blocks}, {64}, [](ThreadCtx&) {});
  }
  state.SetItemsProcessed(state.iterations() * blocks * 64);
}
BENCHMARK(BM_EmptyKernelLaunch)->Arg(1)->Arg(4)->Arg(16);

void BM_CooperativeBarrierKernel(benchmark::State& state) {
  Device gpu;
  const auto barriers = static_cast<int>(state.range(0));
  LaunchOptions opts;
  opts.cooperative = true;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, opts, [barriers](ThreadCtx& t) {
      for (int i = 0; i < barriers; ++i) t.syncthreads();
    });
  }
  state.SetItemsProcessed(state.iterations() * 64 * barriers);
}
BENCHMARK(BM_CooperativeBarrierKernel)->Arg(1)->Arg(4)->Arg(16);

void BM_FitnessShapedLaunch(benchmark::State& state) {
  // The shape of the paper's fitness launch (Section VI-A): 4 blocks x 192
  // threads stage a vector in shared memory behind one barrier, so every
  // simulated thread is a fiber that is armed, yields once and finishes.
  // The argument is the block-execution worker cap (1 = serial).
  Device gpu;
  gpu.set_worker_threads(static_cast<unsigned>(state.range(0)));
  LaunchOptions opts;
  opts.cooperative = true;
  opts.shared_bytes = 192 * sizeof(std::int64_t);
  std::int64_t checksum = 0;
  for (auto _ : state) {
    gpu.Launch({4}, {192}, opts, [&checksum](ThreadCtx& t) {
      auto* staged = t.shared_as<std::int64_t>();
      const std::uint32_t lane = t.linear_thread();
      staged[lane] = static_cast<std::int64_t>(t.global_thread());
      t.syncthreads();
      const std::int64_t neighbour = staged[(lane + 1) % 192];
      if (lane == 0 && t.linear_block() == 0) checksum += neighbour;
    });
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_FitnessShapedLaunch)->Arg(1)->Arg(4)->UseRealTime();

void BM_AtomicMinReduction(benchmark::State& state) {
  Device gpu;
  std::int64_t best = 1 << 30;
  std::int64_t* ptr = &best;
  for (auto _ : state) {
    gpu.Launch({4}, {192}, [ptr](ThreadCtx& t) {
      cdd::sim::AtomicMin(
          ptr, static_cast<std::int64_t>(t.global_thread() * 1337 % 4096));
    });
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_AtomicMinReduction);

void BM_NonCooperativeThreadLoop(benchmark::State& state) {
  // Baseline for the fiber overhead: same geometry without barriers.
  Device gpu;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, [](ThreadCtx& t) { t.charge(1); });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NonCooperativeThreadLoop);

}  // namespace

BENCHMARK_MAIN();
