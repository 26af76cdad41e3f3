#include "cudasim/device.hpp"

#include "cudasim/exec/host_pool.hpp"
#include "trace/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

namespace cdd::sim {

/// Runtime-internal accessor for ThreadCtx's private launch state.
struct ThreadCtxAccess {
  static void Init(ThreadCtx& ctx, Dim3 tidx, Dim3 bidx, Dim3 bdim,
                   Dim3 gdim, std::byte* shared, std::size_t shared_bytes,
                   const DeviceProperties* props) {
    ctx.thread_idx = tidx;
    ctx.block_idx = bidx;
    ctx.block_dim = bdim;
    ctx.grid_dim = gdim;
    ctx.shared_ = shared;
    ctx.shared_bytes_ = shared_bytes;
    ctx.work_ = 0;
    ctx.props_ = props;
  }
  static std::uint64_t Work(const ThreadCtx& ctx) { return ctx.work_; }
  static void SetWork(ThreadCtx& ctx, std::uint64_t work) {
    ctx.work_ = work;
  }
};

namespace {

/// One shared virtual export track for modeled device time.  Kernel,
/// transfer and sync events carry TimingModel timestamps (not wall
/// clock), so a Perfetto view of this track IS the paper's per-kernel
/// runtime breakdown (Fig. 11/14/16).  Allocated lazily: a process that
/// never enables tracing never registers it.
std::uint32_t SimTrack() {
  static const std::uint32_t track =
      trace::NewTrack("sim-device (modeled time)");
  return track;
}

std::int64_t SimNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

Dim3 UnlinearizeBlock(Dim3 grid, std::size_t lin) {
  Dim3 idx;
  idx.x = static_cast<std::uint32_t>(lin % grid.x);
  const std::size_t rest = lin / grid.x;
  idx.y = static_cast<std::uint32_t>(rest % grid.y);
  idx.z = static_cast<std::uint32_t>(rest / grid.y);
  return idx;
}

Dim3 UnlinearizeThread(Dim3 block, std::size_t lin) {
  Dim3 idx;
  idx.x = static_cast<std::uint32_t>(lin % block.x);
  const std::size_t rest = lin / block.x;
  idx.y = static_cast<std::uint32_t>(rest % block.y);
  idx.z = static_cast<std::uint32_t>(rest / block.y);
  return idx;
}

struct BlockResult {
  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
};

std::size_t SharedCells(std::size_t bytes) {
  return (bytes + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
}

/// The calling thread's persistent block-execution scratch, used by the
/// sequential and the host-parallel paths alike.  Pool workers are
/// process-lifetime threads, so keeping it thread-local makes the steady
/// state of every launch allocation-free.  It is sized once, on a thread's
/// first launch, to the device's per-block limits (which ValidateLaunch
/// enforces), so no later launch regrows it.  The scratch is busy for a
/// whole block, so a kernel body must not itself launch (the simulator
/// models no dynamic parallelism).
struct BlockScratch {
  std::vector<std::uint64_t> work;  ///< per-thread charge, over all phases
  std::vector<std::max_align_t> smem;
};

/// Executes one block and returns its charge aggregates.  Phase by phase,
/// the block's threads run one after another to completion, so they share
/// one context: only the thread index and the charge change between
/// threads (a 1-D block needs no unlinearizing).  An exception leaves
/// nothing behind that the next launch would trip over.
BlockResult RunOneBlock(Dim3 grid, Dim3 block, std::size_t linear_block,
                        const LaunchOptions& opts,
                        std::span<const KernelFn> phases,
                        const DeviceProperties& props) {
  thread_local BlockScratch scratch;
  if (scratch.work.size() < props.max_threads_per_block) {
    scratch.work.resize(props.max_threads_per_block);
  }
  if (scratch.smem.size() < SharedCells(props.shared_mem_per_block)) {
    scratch.smem.resize(SharedCells(props.shared_mem_per_block));
  }

  // Zeroed dynamic shared memory for this block, kept across its phases.
  if (opts.shared_bytes > 0) {
    std::memset(scratch.smem.data(), 0,
                SharedCells(opts.shared_bytes) * sizeof(std::max_align_t));
  }
  const std::size_t tpb = block.count();
  std::uint64_t* work = scratch.work.data();
  std::fill_n(work, tpb, std::uint64_t{0});

  ThreadCtx ctx;
  ThreadCtxAccess::Init(ctx, Dim3{}, UnlinearizeBlock(grid, linear_block),
                        block, grid,
                        reinterpret_cast<std::byte*>(scratch.smem.data()),
                        opts.shared_bytes, &props);
  const bool one_d = block.y == 1 && block.z == 1;
  for (const KernelFn& phase : phases) {
    for (std::size_t t = 0; t < tpb; ++t) {
      ctx.thread_idx = one_d ? Dim3{static_cast<std::uint32_t>(t), 0, 0}
                             : UnlinearizeThread(block, t);
      ThreadCtxAccess::SetWork(ctx, work[t]);
      phase(ctx);
      work[t] = ThreadCtxAccess::Work(ctx);
    }
  }

  BlockResult res;
  for (std::size_t t = 0; t < tpb; ++t) {
    res.total_work += work[t];
    res.max_work = std::max(res.max_work, work[t]);
  }
  return res;
}

}  // namespace

Device::Device(DeviceProperties props)
    : props_(std::move(props)), model_(props_) {}

Device::~Device() = default;

void Device::set_worker_threads(unsigned workers) {
  workers_ = workers == 0 ? 1u : workers;
}

unsigned Device::worker_threads() const {
  if (workers_ != 0) return workers_;
  return exec_backend_ == exec::ExecBackend::kHostParallel
             ? exec::ActiveExecWorkers()
             : 1u;
}

void Device::ValidateLaunch(Dim3 grid, Dim3 block,
                            std::size_t shared_bytes) const {
  if (grid.count() == 0 || block.count() == 0) {
    throw GpuError("launch: empty grid or block");
  }
  if (block.count() > props_.max_threads_per_block) {
    throw GpuError("launch: " + std::to_string(block.count()) +
                   " threads per block exceeds device limit " +
                   std::to_string(props_.max_threads_per_block));
  }
  if (block.x > props_.max_block_dim_x || block.y > props_.max_block_dim_y ||
      block.z > props_.max_block_dim_z) {
    throw GpuError("launch: block dimension exceeds device limit");
  }
  if (grid.x > props_.max_grid_dim_x) {
    throw GpuError("launch: grid.x exceeds device limit");
  }
  if (shared_bytes > props_.shared_mem_per_block) {
    throw GpuError("launch: " + std::to_string(shared_bytes) +
                   " bytes of shared memory exceeds per-block limit " +
                   std::to_string(props_.shared_mem_per_block));
  }
}

void Device::LaunchPhases(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                          std::span<const KernelFn> phases) {
  ValidateLaunch(grid, block, opts.shared_bytes);
  if (phases.empty()) throw GpuError("launch: no kernel phases");

  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
  const unsigned cap = worker_threads();
  const auto wall_start = std::chrono::steady_clock::now();
  if (cap <= 1 || grid.count() <= 1) {
    RunBlocksSequential(grid, block, opts, phases, total_work, max_work);
  } else {
    RunBlocksParallel(grid, block, opts, phases, cap, total_work,
                      max_work);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  const LaunchCharge charge{grid, block, total_work, max_work,
                            opts.shared_bytes};
  const double seconds = model_.KernelSeconds(charge);
  profiler_.RecordKernel(opts.name, grid.count(),
                         grid.count() * block.count(), total_work, seconds,
                         wall.count());
  const double start = sim_time_s_;
  sim_time_s_ += seconds;
  if (trace::Enabled()) {
    trace::Complete(trace::InternName(opts.name), SimNs(start),
                    SimNs(seconds), SimTrack());
  }
}

void Device::RunBlocksSequential(Dim3 grid, Dim3 block,
                                 const LaunchOptions& opts,
                                 std::span<const KernelFn> phases,
                                 std::uint64_t& total_work,
                                 std::uint64_t& max_work) {
  for (std::size_t b = 0; b < grid.count(); ++b) {
    const BlockResult r = RunOneBlock(grid, block, b, opts, phases, props_);
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::RunBlocksParallel(Dim3 grid, Dim3 block,
                               const LaunchOptions& opts,
                               std::span<const KernelFn> phases,
                               unsigned cap,
                               std::uint64_t& total_work,
                               std::uint64_t& max_work) {
  // Blocks fan out over the process-wide persistent pool; each worker's
  // charge aggregates land in a block-indexed slot (disjoint writes) and
  // reduce below in block-index order.  The sums are exact integers, so
  // the reduction — and therefore the modeled time — is bit-identical to
  // the serial backend no matter which worker ran which block.
  std::vector<BlockResult> results(grid.count());
  exec::HostThreadPool::Instance().ParallelFor(
      grid.count(), cap, [&](std::size_t b) {
        results[b] = RunOneBlock(grid, block, b, opts, phases, props_);
      });
  for (const BlockResult& r : results) {
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::Synchronize() {
  // Functionally a no-op (launches are synchronous); charge the fence cost
  // the paper pays after each generation's four kernels (Section VI-D).
  if (trace::Enabled()) {
    trace::Complete("sync", SimNs(sim_time_s_),
                    SimNs(props_.launch_overhead_s), SimTrack());
  }
  sim_time_s_ += props_.launch_overhead_s;
}

void Device::RegisterAlloc(std::size_t bytes, bool constant) {
  if (constant) {
    if (constant_allocated_ + bytes > props_.constant_mem) {
      throw GpuError("constant memory exhausted");
    }
    constant_allocated_ += bytes;
    return;
  }
  if (allocated_ + bytes > props_.global_mem) {
    throw GpuError("device global memory exhausted (" +
                   std::to_string(allocated_ + bytes) + " > " +
                   std::to_string(props_.global_mem) + " bytes)");
  }
  allocated_ += bytes;
}

void Device::ReleaseAlloc(std::size_t bytes, bool constant) noexcept {
  if (constant) {
    constant_allocated_ -= std::min(constant_allocated_, bytes);
  } else {
    allocated_ -= std::min(allocated_, bytes);
  }
}

void Device::RecordH2D(std::size_t bytes) {
  const double seconds = model_.TransferSeconds(bytes, true);
  if (trace::Enabled()) {
    trace::Complete("h2d", SimNs(sim_time_s_), SimNs(seconds), SimTrack());
    trace::CounterSampleAt("h2d.bytes", SimNs(sim_time_s_),
                           static_cast<std::int64_t>(bytes), SimTrack());
  }
  sim_time_s_ += seconds;
  profiler_.RecordTransfer(true, bytes, seconds);
}

void Device::RecordD2H(std::size_t bytes) {
  const double seconds = model_.TransferSeconds(bytes, false);
  if (trace::Enabled()) {
    trace::Complete("d2h", SimNs(sim_time_s_), SimNs(seconds), SimTrack());
    trace::CounterSampleAt("d2h.bytes", SimNs(sim_time_s_),
                           static_cast<std::int64_t>(bytes), SimTrack());
  }
  sim_time_s_ += seconds;
  profiler_.RecordTransfer(false, bytes, seconds);
}

}  // namespace cdd::sim
