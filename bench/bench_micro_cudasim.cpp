/// \file bench_micro_cudasim.cpp
/// \brief GPU-simulator microbenchmarks: host-side cost of kernel launch,
/// phased (barrier) launches, atomic reduction and the paper's fitness
/// launch — the simulator's own overheads, kept separate from the modeled
/// device time.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/test_instances.hpp"
#include "core/eval_simd.hpp"
#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"

namespace {

using cdd::sim::Device;
using cdd::sim::KernelFn;
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

void BM_PhasedBarrierKernel(benchmark::State& state) {
  // A 64-thread kernel with <arg> barriers, i.e. <arg> + 1 empty phases:
  // the host cost of the phase loop itself.
  Device gpu;
  const auto barriers = static_cast<int>(state.range(0));
  const std::vector<KernelFn> phases(static_cast<std::size_t>(barriers) + 1,
                                     [](ThreadCtx&) {});
  for (auto _ : state) {
    gpu.LaunchPhases({1}, {64}, LaunchOptions{}, phases);
  }
  state.SetItemsProcessed(state.iterations() * 64 * barriers);
}
BENCHMARK(BM_PhasedBarrierKernel)->Arg(1)->Arg(4)->Arg(16);

void BM_FitnessShapedLaunch(benchmark::State& state) {
  // A two-phase launch of the paper's fitness geometry (Section VI-A):
  // 4 blocks x 192 threads stage a vector in shared memory, and after the
  // barrier each thread reads its neighbour's entry.  The fitness launch
  // itself has one phase (BM_LaunchFitness); this measures what a user
  // kernel with one barrier costs.  The argument is the block-execution
  // worker cap (1 = serial).
  Device gpu;
  gpu.set_worker_threads(static_cast<unsigned>(state.range(0)));
  LaunchOptions opts;
  opts.shared_bytes = 192 * sizeof(std::int64_t);
  std::int64_t checksum = 0;
  const KernelFn phases[] = {
      [](ThreadCtx& t) {
        t.shared_as<std::int64_t>()[t.linear_thread()] =
            static_cast<std::int64_t>(t.global_thread());
      },
      [&checksum](ThreadCtx& t) {
        const std::uint32_t lane = t.linear_thread();
        const std::int64_t neighbour =
            t.shared_as<std::int64_t>()[(lane + 1) % 192];
        if (lane == 0 && t.linear_block() == 0) checksum += neighbour;
      }};
  for (auto _ : state) {
    gpu.LaunchPhases({4}, {192}, opts, phases);
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_FitnessShapedLaunch)->Arg(1)->Arg(4)->UseRealTime();

/// 768 device rows of length n (the paper's 4 x 192 ensemble) on a
/// serial device, for the two fitness benchmarks below.
struct FitnessRows {
  static constexpr std::uint32_t kEnsemble = 768;
  Device gpu;
  cdd::par::DeviceProblem problem;
  cdd::sim::DeviceBuffer<cdd::JobId> seqs;
  cdd::sim::DeviceBuffer<cdd::Cost> costs;

  explicit FitnessRows(std::int32_t n)
      : problem(gpu, cdd::testing::RandomCdd(static_cast<std::uint32_t>(n),
                                             0.6, 7)),
        seqs(gpu, static_cast<std::size_t>(kEnsemble) * n),
        costs(gpu, kEnsemble) {
    gpu.set_worker_threads(1);
    cdd::par::detail::WriteInitialSequences({seqs.data(), seqs.size()}, n,
                                            11);
  }
};

void BM_LaunchFitness(benchmark::State& state) {
  // The whole fitness launch of psa/pdpso/psa-sync: launch bookkeeping,
  // per-thread charges and the block-sliced batch evaluation.  Compare
  // with BM_FitnessBatchEval at the same n for the host overhead per
  // launch.
  const auto n = static_cast<std::int32_t>(state.range(0));
  FitnessRows rows(n);
  const cdd::par::LaunchConfig config;
  const cdd::CandidatePoolView pool = cdd::par::detail::DeviceView(
      rows.seqs.data(), rows.costs.data(), n, FitnessRows::kEnsemble);
  for (auto _ : state) {
    cdd::par::detail::LaunchFitness(rows.gpu, rows.problem, config, pool,
                                    "fitness");
    benchmark::DoNotOptimize(rows.costs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * FitnessRows::kEnsemble);
}
BENCHMARK(BM_LaunchFitness)->Arg(50)->Arg(200)->Arg(500);

void BM_FitnessBatchEval(benchmark::State& state) {
  // The batch evaluator alone over the same rows, sliced per 192-thread
  // block exactly as LaunchFitness's thread 0 of each block runs it.
  const auto n = static_cast<std::int32_t>(state.range(0));
  FitnessRows rows(n);
  const cdd::par::DeviceProblem& p = rows.problem;
  constexpr std::int32_t kBlock = 192;
  for (auto _ : state) {
    for (std::uint32_t first = 0; first < FitnessRows::kEnsemble;
         first += kBlock) {
      cdd::raw::EvalCddBatchDispatch(
          n, p.due_date(), rows.seqs.data() + std::size_t{first} * n, n,
          kBlock, p.proc(), p.alpha(), p.beta(), rows.costs.data() + first);
    }
    benchmark::DoNotOptimize(rows.costs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * FitnessRows::kEnsemble);
}
BENCHMARK(BM_FitnessBatchEval)->Arg(50)->Arg(200)->Arg(500);

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

void BM_OnePhaseThreadLoop(benchmark::State& state) {
  // Baseline for BM_PhasedBarrierKernel: same geometry, one phase.
  Device gpu;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, [](ThreadCtx& t) { t.charge(1); });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_OnePhaseThreadLoop);

}  // namespace

BENCHMARK_MAIN();
