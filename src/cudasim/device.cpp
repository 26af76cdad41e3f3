#include "cudasim/device.hpp"

#include "cudasim/exec/host_pool.hpp"
#include "cudasim/fiber.hpp"
#include "cudasim/stream.hpp"
#include "trace/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
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
    ctx.fiber_ = nullptr;
    ctx.props_ = props;
  }
  static void SetFiber(ThreadCtx& ctx, Fiber* fiber) { ctx.fiber_ = fiber; }
  static std::uint64_t Work(const ThreadCtx& ctx) { return ctx.work_; }
  static void ResetWork(ThreadCtx& ctx) { ctx.work_ = 0; }
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

/// Per-worker scratch needed to execute blocks.
struct WorkerState {
  FiberPool* pool = nullptr;
  const DeviceProperties* props = nullptr;
  std::vector<ThreadCtx> ctxs;
  std::vector<std::max_align_t> smem;
};

struct BlockResult {
  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
};

/// Executes one block of a plain launch.  Its threads run one after
/// another to completion, so they share one context: only the thread
/// index and the charge change between threads (a 1-D block needs no
/// unlinearizing).
BlockResult RunPlainBlock(Dim3 grid, Dim3 block, Dim3 bidx,
                          std::byte* smem_ptr, const LaunchOptions& opts,
                          const KernelFn& kernel,
                          const DeviceProperties* props) {
  ThreadCtx ctx;
  ThreadCtxAccess::Init(ctx, Dim3{}, bidx, block, grid, smem_ptr,
                        opts.shared_bytes, props);
  const bool one_d = block.y == 1 && block.z == 1;
  BlockResult res;
  for (std::size_t t = 0; t < block.count(); ++t) {
    ctx.thread_idx = one_d ? Dim3{static_cast<std::uint32_t>(t), 0, 0}
                           : UnlinearizeThread(block, t);
    ThreadCtxAccess::ResetWork(ctx);
    kernel(ctx);
    const std::uint64_t w = ThreadCtxAccess::Work(ctx);
    res.total_work += w;
    res.max_work = std::max(res.max_work, w);
  }
  return res;
}

/// Executes one block and returns its charge aggregates.
BlockResult RunOneBlock(Dim3 grid, Dim3 block, std::size_t linear_block,
                        const LaunchOptions& opts, const KernelFn& kernel,
                        WorkerState& ws) {
  const std::size_t tpb = block.count();
  const Dim3 bidx = UnlinearizeBlock(grid, linear_block);

  // Zeroed dynamic shared memory for this block.
  const std::size_t smem_cells =
      (opts.shared_bytes + sizeof(std::max_align_t) - 1) /
      sizeof(std::max_align_t);
  if (ws.smem.size() < smem_cells) ws.smem.resize(smem_cells);
  if (smem_cells > 0) {
    std::memset(ws.smem.data(), 0, smem_cells * sizeof(std::max_align_t));
  }
  std::byte* smem_ptr = reinterpret_cast<std::byte*>(ws.smem.data());

  if (!opts.cooperative) {
    return RunPlainBlock(grid, block, bidx, smem_ptr, opts, kernel,
                         ws.props);
  }

  if (ws.ctxs.size() < tpb) ws.ctxs.resize(tpb);
  for (std::size_t t = 0; t < tpb; ++t) {
    ThreadCtxAccess::Init(ws.ctxs[t], UnlinearizeThread(block, t), bidx,
                          block, grid, smem_ptr, opts.shared_bytes,
                          ws.props);
  }

  auto& fibers = ws.pool->Acquire(tpb);
  for (std::size_t t = 0; t < tpb; ++t) {
    ThreadCtx& ctx = ws.ctxs[t];
    ThreadCtxAccess::SetFiber(ctx, &fibers[t]);
    fibers[t].Reset([&kernel, &ctx]() { kernel(ctx); });
  }
  std::size_t finished = 0;
  while (finished < tpb) {
    std::size_t yielded = 0;
    for (std::size_t t = 0; t < tpb; ++t) {
      if (fibers[t].done()) continue;
      if (fibers[t].Resume()) {
        ++yielded;
      } else {
        fibers[t].RethrowIfFailed();
        ++finished;
      }
    }
    if (yielded > 0 && finished > 0) {
      throw GpuError(
          "__syncthreads divergence in block " + ToString(bidx) +
          ": some threads exited while others wait at a barrier");
    }
  }

  BlockResult res;
  for (std::size_t t = 0; t < tpb; ++t) {
    const std::uint64_t w = ThreadCtxAccess::Work(ws.ctxs[t]);
    res.total_work += w;
    res.max_work = std::max(res.max_work, w);
  }
  return res;
}

/// The calling thread's persistent block-execution scratch, used by the
/// sequential and the host-parallel paths alike.  Pool workers are
/// process-lifetime threads, so keeping WorkerState (and one FiberPool per
/// requested stack size) thread-local makes the steady state of every
/// launch allocation-free: fibers, contexts and shared memory are all
/// reused across launches and across devices, for any stack size.  The
/// scratch is busy for a whole block, so a kernel body must not itself
/// launch (the simulator models no dynamic parallelism).
WorkerState& ThreadWorkerState(const DeviceProperties& props,
                               std::size_t fiber_stack_bytes) {
  struct TlsState {
    WorkerState ws;
    std::unordered_map<std::size_t, FiberPool> pools;
  };
  thread_local TlsState tls;
  auto it = tls.pools.find(fiber_stack_bytes);
  if (it == tls.pools.end()) {
    it = tls.pools
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(fiber_stack_bytes),
                      std::forward_as_tuple(fiber_stack_bytes))
             .first;
  }
  tls.ws.pool = &it->second;
  tls.ws.props = &props;
  return tls.ws;
}

/// Executes one block on the calling thread's scratch.
BlockResult RunBlockHere(Dim3 grid, Dim3 block, std::size_t linear_block,
                         const LaunchOptions& opts, const KernelFn& kernel,
                         const DeviceProperties& props) {
  WorkerState& ws = ThreadWorkerState(props, opts.fiber_stack_bytes);
  try {
    return RunOneBlock(grid, block, linear_block, opts, kernel, ws);
  } catch (...) {
    // Sibling fibers of the failing block remain suspended; drop them so
    // this thread's pool stays usable for future launches.
    ws.pool->Clear();
    throw;
  }
}

}  // namespace

void ThreadCtx::syncthreads() {
  if (fiber_ == nullptr) {
    if (block_dim.count() == 1) return;  // trivially synchronized
    throw GpuError(
        "syncthreads() called in a non-cooperative launch; set "
        "LaunchOptions::cooperative");
  }
  fiber_->Yield();
}

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

double Device::ExecuteLaunch(Dim3 grid, Dim3 block,
                             const LaunchOptions& opts,
                             const KernelFn& kernel) {
  ValidateLaunch(grid, block, opts.shared_bytes);

  std::uint64_t total_work = 0;
  std::uint64_t max_work = 0;
  const unsigned cap = worker_threads();
  const auto wall_start = std::chrono::steady_clock::now();
  if (cap <= 1 || grid.count() <= 1) {
    RunBlocksSequential(grid, block, opts, kernel, total_work, max_work);
  } else {
    RunBlocksParallel(grid, block, opts, kernel, cap, total_work,
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
  return seconds;
}

void Device::Launch(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                    const KernelFn& kernel) {
  const double start = sim_time_s_;
  const double seconds = ExecuteLaunch(grid, block, opts, kernel);
  sim_time_s_ = start + seconds;
  if (trace::Enabled()) {
    trace::Complete(trace::InternName(opts.name), SimNs(start),
                    SimNs(seconds), SimTrack());
  }
}

void Device::LaunchAsync(Stream& stream, Dim3 grid, Dim3 block,
                         const LaunchOptions& opts, const KernelFn& kernel) {
  if (stream.device_ != this) {
    throw GpuError("LaunchAsync: stream belongs to another device");
  }
  const double seconds = ExecuteLaunch(grid, block, opts, kernel);
  const double start = std::max(stream.ready_at_, sim_time_s_);
  stream.ready_at_ = start + seconds;
  if (trace::Enabled()) {
    trace::Complete(trace::InternName(opts.name), SimNs(start),
                    SimNs(seconds), SimTrack());
  }
}

void Device::RunBlocksSequential(Dim3 grid, Dim3 block,
                                 const LaunchOptions& opts,
                                 const KernelFn& kernel,
                                 std::uint64_t& total_work,
                                 std::uint64_t& max_work) {
  for (std::size_t b = 0; b < grid.count(); ++b) {
    const BlockResult r = RunBlockHere(grid, block, b, opts, kernel, props_);
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::RunBlocksParallel(Dim3 grid, Dim3 block,
                               const LaunchOptions& opts,
                               const KernelFn& kernel, unsigned cap,
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
        results[b] = RunBlockHere(grid, block, b, opts, kernel, props_);
      });
  for (const BlockResult& r : results) {
    total_work += r.total_work;
    max_work = std::max(max_work, r.max_work);
  }
}

void Device::Synchronize() {
  // Functionally a no-op (launches are synchronous); charge the fence cost
  // the paper pays after each generation's four kernels (Section VI-D),
  // and join every live stream's timeline.
  for (Stream* stream : streams_) {
    sim_time_s_ = std::max(sim_time_s_, stream->ready_at_);
  }
  if (trace::Enabled()) {
    trace::Complete("sync", SimNs(sim_time_s_),
                    SimNs(props_.launch_overhead_s), SimTrack());
  }
  sim_time_s_ += props_.launch_overhead_s;
}

Stream::Stream(Device& device) : device_(&device) {
  ready_at_ = device.sim_time_s();
  device.streams_.push_back(this);
}

Stream::~Stream() {
  auto& streams = device_->streams_;
  streams.erase(std::remove(streams.begin(), streams.end(), this),
                streams.end());
}

void Stream::Synchronize() {
  device_->sim_time_s_ = std::max(device_->sim_time_s_, ready_at_);
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
