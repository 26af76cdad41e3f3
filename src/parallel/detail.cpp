#include "parallel/detail.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"
#include "cudasim/atomics.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par::detail {

void RequirePackableCosts(const DeviceProblem& problem, const char* engine) {
  if (problem.cost_upper_bound() >= raw::kMaxPackableCost) {
    throw std::invalid_argument(std::string(engine) +
                                ": instance costs exceed the packed key "
                                "range");
  }
}

void ValidateLaunch(const sim::Device& device, const LaunchConfig& config,
                    const char* engine) {
  config.Validate(device);
  if (config.ensemble() > (1u << raw::kThreadBits)) {
    throw std::invalid_argument(std::string(engine) +
                                ": ensemble exceeds packed-key thread "
                                "capacity");
  }
}

meta::EngineOutput ToEngineOutput(GpuRunResult gpu) {
  meta::EngineOutput out;
  out.result.best = std::move(gpu.best);
  out.result.best_cost = gpu.best_cost;
  out.result.evaluations = gpu.evaluations;
  out.result.wall_seconds = gpu.wall_seconds;
  out.result.stopped = gpu.stopped;
  out.result.trajectory = std::move(gpu.trajectory);
  out.device_seconds = gpu.device_seconds;
  return out;
}

void WriteInitialSequences(std::span<JobId> rows, std::int32_t n,
                           std::uint64_t seed, const Sequence* base) {
  const auto ensemble =
      static_cast<std::uint32_t>(rows.size() / static_cast<std::size_t>(n));
  for (std::uint32_t t = 0; t < ensemble; ++t) {
    JobId* row = rows.data() + static_cast<std::size_t>(t) * n;
    rng::Philox4x32 rng =
        raw::MakeStream(seed, /*generation=*/0, raw::RngPhase::kInit, t);
    if (base == nullptr) {
      for (std::int32_t i = 0; i < n; ++i) row[i] = i;
      FisherYates(std::span<JobId>(row, static_cast<std::size_t>(n)), rng);
    } else {
      for (std::int32_t i = 0; i < n; ++i) row[i] = (*base)[i];
      if (t > 0) {
        std::uint32_t positions[8];
        JobId values[8];
        raw::PerturbRaw(row, n, 4, rng, positions, values);
      }
    }
  }
}

void LaunchFitness(sim::Device& device, const DeviceProblem& problem,
                   const LaunchConfig& config, const CandidatePoolView& pool,
                   const char* kernel_name, PenaltyMemory memory) {
  const std::int32_t n = problem.n();
  const Time d = problem.due_date();
  const bool controllable = problem.controllable();
  const Time* proc = problem.proc();
  const Time* min_proc = problem.min_proc();
  const Cost* alpha = problem.alpha();
  const Cost* beta = problem.beta();
  const Cost* gamma = problem.gamma();

  const std::size_t shared_bytes = problem.shared_bytes();
  const bool use_shared =
      memory == PenaltyMemory::kShared &&
      shared_bytes <= device.properties().shared_mem_per_block;
  // Per-thread charges, constant over the launch.  The staging copy is
  // split over the block.  Sequence/processing-time traffic is always
  // global; the two penalty streams go through the selected memory path.
  const std::uint64_t staging_units =
      static_cast<std::uint64_t>(n) / config.block().count() + 1;
  const std::uint64_t other_units =
      (controllable ? 3 : 1) * static_cast<std::uint64_t>(n);
  const std::uint64_t penalty_units = 2 * static_cast<std::uint64_t>(n);

  // A one-phase launch: no thread waits at a barrier.  The shared-memory
  // request of the paper's staging phase stays on the launch, so the
  // 48 KiB capacity check and the timing model see the launch a real
  // device would run.
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  opts.shared_bytes = use_shared ? shared_bytes : 0;

  // Each block evaluates its own slice of the ensemble through the
  // dispatched batch evaluator (SIMD when the host supports it) straight
  // into the device-resident costs/pinned columns: thread 0 of the block
  // runs the batch kernel over the block's rows (SIMD within the block,
  // blocks across host workers under the host-parallel exec backend).
  // The kernel threads below charge exactly the memory traffic a
  // per-thread fused evaluation performs — the modeled device timing is
  // unchanged, and the results are bit-identical regardless of slicing
  // or exec backend because every evaluator computes exact integers
  // row-independently.
  assert(pool.current() &&
         "LaunchFitness: stale CandidatePoolView (pool swapped buffers)");

  // Staging model: pageable host pools (kHost) bounce their rows to the
  // device before the kernel and their results back after it;
  // device-resident pools are already there and fire no transfer.  The
  // copies are modeled (the simulator shares one address space); what
  // matters is that the H2D/D2H events and their modeled time land on the
  // device ledger exactly when a real GPU would pay them.
  const core::PoolTransferCost transfer = pool.transfer_cost();
  if (transfer.device_staging) {
    device.RecordH2D(static_cast<std::size_t>(pool.count) * pool.stride *
                     sizeof(JobId));
  }
  device.Launch(
      config.grid(), config.block(), opts, [=](sim::ThreadCtx& t) {
        if (t.linear_thread() == 0) {
          // Block-sliced evaluation: rows are disjoint per block, so
          // concurrent blocks never touch the same costs/pinned entries.
          const std::uint64_t first =
              static_cast<std::uint64_t>(t.linear_block()) *
              t.block_dim.count();
          if (first < pool.count) {
            const auto slice = static_cast<std::int32_t>(
                std::min<std::uint64_t>(t.block_dim.count(),
                                        pool.count - first));
            const JobId* rows =
                pool.seqs + first * static_cast<std::uint64_t>(pool.stride);
            std::int32_t* pin =
                pool.pinned == nullptr ? nullptr : pool.pinned + first;
            if (controllable) {
              cdd::raw::EvalUcddcpBatchDispatch(
                  n, d, rows, pool.stride, slice, proc, min_proc, alpha,
                  beta, gamma, pool.costs + first, pin);
            } else {
              cdd::raw::EvalCddBatchDispatch(n, d, rows, pool.stride,
                                             slice, proc, alpha, beta,
                                             pool.costs + first, pin);
            }
          }
        }
        if (use_shared) {
          // Section VI-A stages alpha/beta into shared memory with
          // disjoint strided copies behind one barrier.  Only its
          // charge is simulated: the batch evaluation above reads the
          // global vectors, so no thread would read the staged copy.
          t.charge(staging_units);
        }
        const std::uint64_t tid = t.global_thread();
        if (tid >= pool.count) return;
        t.charge(other_units);
        switch (memory) {
          case PenaltyMemory::kShared:
            if (use_shared) {
              t.charge_shared(penalty_units);
            } else {
              t.charge(penalty_units);  // fell back to global
            }
            break;
          case PenaltyMemory::kTexture:
            t.charge_texture(penalty_units);
            break;
          case PenaltyMemory::kGlobal:
            t.charge(penalty_units);
            break;
        }
        // costs/pinned were written by thread 0's slice evaluation above.
      });

  if (transfer.device_staging) {
    std::size_t result_bytes = pool.count * sizeof(Cost);
    if (pool.pinned != nullptr) {
      result_bytes += pool.count * sizeof(std::int32_t);
    }
    device.RecordD2H(result_bytes);
  }
}

void LaunchReduction(sim::Device& device, const LaunchConfig& config,
                     const Cost* costs, std::int64_t* packed_best,
                     const char* kernel_name, ReductionKind kind) {
  const std::uint32_t ensemble = config.ensemble();

  if (kind == ReductionKind::kAtomic) {
    // The paper's variant: every thread fires one atomicMin; contention is
    // serialized in L2 (modeled as per-thread work).
    sim::LaunchOptions opts;
    opts.name = kernel_name;
    device.Launch(config.grid(), config.block(), opts,
                  [=](sim::ThreadCtx& t) {
                    const std::uint64_t tid = t.global_thread();
                    if (tid >= ensemble) return;
                    sim::AtomicMin(
                        packed_best,
                        raw::PackCostThread(
                            costs[tid], static_cast<std::uint32_t>(tid)));
                    t.charge(2);
                    // Same-address atomics serialize in L2 ("the full
                    // process results in a sequential execution order",
                    // Section VI-D).  Thread 0 carries the queue's
                    // critical path so the latency bound of the timing
                    // model sees the serialization (~1/8 work unit per
                    // queued atomic).
                    if (tid == 0) t.charge(ensemble / 8 + 1);
                  });
    return;
  }

  // Tree variant, split at its barriers into phases: stage the keys in
  // shared memory, fold them pairwise (one phase per round), then one
  // atomic per *block*.  The fold width is blockDim rounded up to a power
  // of two, so odd block sizes fold correctly (reads beyond tpb are
  // guarded).
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  opts.shared_bytes = config.block_size * sizeof(std::int64_t);
  const std::uint32_t tpb = config.block_size;
  std::vector<sim::KernelFn> phases;
  phases.emplace_back([=](sim::ThreadCtx& t) {
    const std::uint64_t tid = t.global_thread();
    t.shared_as<std::int64_t>()[t.linear_thread()] =
        tid < ensemble
            ? raw::PackCostThread(costs[tid], static_cast<std::uint32_t>(tid))
            : std::numeric_limits<std::int64_t>::max();
  });
  std::uint32_t width = 1;
  while (width < tpb) width <<= 1;
  for (std::uint32_t stride = width >> 1; stride > 0; stride >>= 1) {
    phases.emplace_back([=](sim::ThreadCtx& t) {
      std::int64_t* keys = t.shared_as<std::int64_t>();
      const std::uint32_t lt = t.linear_thread();
      if (lt < stride && lt + stride < tpb) {
        keys[lt] = std::min(keys[lt], keys[lt + stride]);
      }
      t.charge_shared(1);
    });
  }
  phases.emplace_back([=](sim::ThreadCtx& t) {
    if (t.linear_thread() == 0) {
      sim::AtomicMin(packed_best, t.shared_as<std::int64_t>()[0]);
      t.charge(2);
    }
  });
  device.LaunchPhases(config.grid(), config.block(), opts, phases);
}

std::int64_t DownloadPacked(const sim::DeviceBuffer<std::int64_t>& packed) {
  std::int64_t value = 0;
  packed.CopyToHost(std::span<std::int64_t>(&value, 1));
  return value;
}

Sequence DownloadRow(const sim::DeviceBuffer<JobId>& seqs, std::int32_t n,
                     std::uint32_t thread) {
  Sequence row(static_cast<std::size_t>(n));
  seqs.CopyToHost(std::span<JobId>(row),
                  static_cast<std::size_t>(thread) * n);
  return row;
}

}  // namespace cdd::par::detail
