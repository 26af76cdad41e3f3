/// \file custom_kernel.cpp
/// \brief Using the GPU simulator directly: write a custom four-step
/// kernel program on the `sim::Device` API, outside the provided solvers.
///
/// The kernel evaluates every *cyclic rotation* of a base sequence in
/// parallel — one rotation per simulated CUDA thread — staging the penalty
/// arrays in shared memory behind a barrier (the same pattern as the
/// paper's fitness kernel; the barrier splits the launch into two phases)
/// and reducing the winner with an atomic minimum.
///
///   ./examples/custom_kernel [--jobs 192] [--seed 3]

#include <iostream>

#include "benchutil/cli.hpp"
#include "core/eval_raw.hpp"
#include "core/sequence.hpp"
#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "rng/philox.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  const auto n = static_cast<std::int32_t>(args.GetInt("jobs", 192));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 3));

  const orlib::BiskupFeldmannGenerator gen(seed);
  const Instance instance =
      gen.Cdd(static_cast<std::uint32_t>(n), 0, 0.6);

  // Flatten instance data and upload, as CUDA host code would.
  std::vector<Time> proc(instance.size());
  std::vector<Cost> alpha(instance.size());
  std::vector<Cost> beta(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    proc[i] = instance.job(i).proc;
    alpha[i] = instance.job(i).early;
    beta[i] = instance.job(i).tardy;
  }
  rng::Philox4x32 rng(seed, 1);
  const Sequence base = RandomSequence(instance.size(), rng);

  sim::Device gpu(sim::GeForceGT560M());
  sim::DeviceBuffer<Time> d_proc(gpu, proc.size());
  sim::DeviceBuffer<Cost> d_alpha(gpu, alpha.size());
  sim::DeviceBuffer<Cost> d_beta(gpu, beta.size());
  sim::DeviceBuffer<JobId> d_base(gpu, base.size());
  sim::DeviceBuffer<JobId> d_scratch(gpu, base.size() * base.size());
  sim::DeviceBuffer<std::int64_t> d_best(gpu, 1);
  d_proc.CopyFromHost(proc);
  d_alpha.CopyFromHost(alpha);
  d_beta.CopyFromHost(beta);
  d_base.CopyFromHost(base);
  d_best.Fill((Cost{1} << 42) << 20);

  const Time d = instance.due_date();
  const Time* p_proc = d_proc.data();
  const Cost* p_alpha = d_alpha.data();
  const Cost* p_beta = d_beta.data();
  const JobId* p_base = d_base.data();
  JobId* p_scratch = d_scratch.data();
  std::int64_t* p_best = d_best.data();

  // One thread per rotation; grid = ceil(n / 192), the paper's block size.
  const sim::Dim3 block{192, 1, 1};
  const sim::Dim3 grid{
      static_cast<std::uint32_t>((n + 191) / 192), 1, 1};
  sim::LaunchOptions opts;
  opts.name = "rotation_eval";
  opts.shared_bytes =
      2 * static_cast<std::size_t>(n) * sizeof(Cost);

  // The kernel has one barrier, so it is launched as two phases: every
  // thread of a block finishes the first before any starts the second.
  const sim::KernelFn phases[] = {
      [=](sim::ThreadCtx& t) {
        // Stage alpha/beta into shared memory (strided copies).
        Cost* s_alpha = t.shared_as<Cost>();
        Cost* s_beta = s_alpha + n;
        const auto tpb = static_cast<std::int32_t>(t.block_dim.count());
        for (std::int32_t i = static_cast<std::int32_t>(t.linear_thread());
             i < n; i += tpb) {
          s_alpha[i] = p_alpha[i];
          s_beta[i] = p_beta[i];
        }
      },
      [=](sim::ThreadCtx& t) {
        const auto r = static_cast<std::int32_t>(t.global_thread());
        if (r >= n) return;
        // Build rotation r of the base sequence in this thread's scratch
        // row and evaluate it against the staged penalties.
        const Cost* s_alpha = t.shared_as<Cost>();
        const Cost* s_beta = s_alpha + n;
        JobId* mine = p_scratch + static_cast<std::size_t>(r) * n;
        for (std::int32_t i = 0; i < n; ++i) {
          mine[i] = p_base[(i + r) % n];
        }
        const raw::EvalResult res =
            raw::EvalCdd(n, d, mine, p_proc, s_alpha, s_beta);
        sim::AtomicMin(p_best, res.cost << 20 | static_cast<std::int64_t>(r));
        t.charge(4 * static_cast<std::uint64_t>(n));
      }};
  gpu.LaunchPhases(grid, block, opts, phases);
  gpu.Synchronize();

  std::int64_t packed = 0;
  d_best.CopyToHost(std::span<std::int64_t>(&packed, 1));
  std::cout << "Best rotation: " << (packed & ((1 << 20) - 1))
            << "  cost " << (packed >> 20) << "\n\n";
  std::cout << "Profiler:\n" << gpu.profiler().Report();
  std::cout << "\nModeled GT 560M time: " << gpu.sim_time_s() * 1e3
            << " ms for " << n << " rotations of " << n << " jobs\n";
  return 0;
}
