#pragma once
/// \file device.hpp
/// \brief The simulated GPU: kernel launches, thread contexts, time ledger.
///
/// Usage mirrors CUDA host code:
///
///   sim::Device gpu(sim::GeForceGT560M());
///   sim::DeviceBuffer<int> data(gpu, 1024);            // cudaMalloc
///   data.CopyFromHost(host_span);                      // cudaMemcpy H2D
///   gpu.Launch({4}, {192}, opts, [&](sim::ThreadCtx& t) {  // kernel<<<4,192>>>
///     ...
///     t.charge(n);                                     // timing model input
///   });
///   const sim::KernelFn phases[] = {                   // split at its barrier:
///       [&](sim::ThreadCtx& t) { /* stage into t.shared_as<int>() */ },
///       [&](sim::ThreadCtx& t) { /* read other threads' entries */ }};
///   gpu.LaunchPhases({4}, {192}, opts, phases);
///   gpu.Synchronize();                                 // cudaDeviceSynchronize
///   data.CopyToHost(host_span);                        // cudaMemcpy D2H
///
/// Execution is functionally synchronous and deterministic; the *time* a
/// launch would have taken on the configured device is produced by the
/// analytic TimingModel and accumulated in sim_time_s().

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "cudasim/device_props.hpp"
#include "cudasim/dim3.hpp"
#include "cudasim/error.hpp"
#include "cudasim/exec/backend.hpp"
#include "cudasim/profiler.hpp"
#include "cudasim/timing_model.hpp"

namespace cdd::sim {

class Device;

/// Per-simulated-thread view handed to the kernel body.  A launch runs
/// the threads of a block one after another on one reused context, so a
/// kernel must not keep a reference to its context after it returns.
class ThreadCtx {
 public:
  Dim3 thread_idx;  ///< threadIdx
  Dim3 block_idx;   ///< blockIdx
  Dim3 block_dim;   ///< blockDim
  Dim3 grid_dim;    ///< gridDim

  /// Linear thread index within the block (x fastest).
  std::uint32_t linear_thread() const {
    return static_cast<std::uint32_t>(
        block_dim.linear(thread_idx.x, thread_idx.y, thread_idx.z));
  }
  /// Linear block index within the grid.
  std::size_t linear_block() const {
    return grid_dim.linear(block_idx.x, block_idx.y, block_idx.z);
  }
  /// Grid-global linear thread id (the paper's per-chain index).
  std::uint64_t global_thread() const {
    return static_cast<std::uint64_t>(linear_block()) * block_dim.count() +
           linear_thread();
  }

  /// Start of this block's shared memory (zero-initialized once per block
  /// and kept across the block's phases; note that real CUDA leaves shared
  /// memory uninitialized).
  std::byte* shared() const { return shared_; }
  std::size_t shared_bytes() const { return shared_bytes_; }
  template <typename T>
  T* shared_as() const {
    return reinterpret_cast<T*>(shared_);
  }

  /// Reports \p units of abstract per-thread work to the timing model
  /// (roughly: inner-loop iterations executed, memory served from global
  /// memory / L2 — the baseline cost).
  void charge(std::uint64_t units) { work_ += units; }

  /// Work units whose memory traffic hits block shared memory (cheaper;
  /// see DeviceProperties::shared_cost_factor).
  void charge_shared(std::uint64_t units) {
    work_ += Scaled(units, props_->shared_cost_factor);
  }
  /// Work units served by the read-only texture path's spatial cache.
  void charge_texture(std::uint64_t units) {
    work_ += Scaled(units, props_->texture_cost_factor);
  }

  /// This thread's charge so far, summed over the launch's phases.
  std::uint64_t charged() const { return work_; }

 private:
  friend class Device;
  friend struct ThreadCtxAccess;  // runtime-internal initialization

  static std::uint64_t Scaled(std::uint64_t units, double factor) {
    return static_cast<std::uint64_t>(static_cast<double>(units) * factor +
                                      0.5);
  }

  std::byte* shared_ = nullptr;
  std::size_t shared_bytes_ = 0;
  std::uint64_t work_ = 0;
  const DeviceProperties* props_ = nullptr;
};

/// Kernel body (or one phase of it): invoked once per simulated thread.
using KernelFn = std::function<void(ThreadCtx&)>;

/// Per-launch options (the <<<grid, block, smem>>> extras).
struct LaunchOptions {
  std::string name = "kernel";   ///< profiler key
  std::size_t shared_bytes = 0;  ///< dynamic shared memory per block
};

/// A simulated GPU device.
///
/// Thread-compatibility: a Device may be driven from one host thread at a
/// time (like a CUDA context).  Internally it may fan blocks out over a
/// host worker pool; simulated-thread code must only touch per-thread data,
/// shared memory (within its block) and global memory via atomics.hpp —
/// the same rules CUDA imposes.
class Device {
 public:
  explicit Device(DeviceProperties props = GeForceGT560M());
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceProperties& properties() const { return props_; }

  /// Launches \p kernel on a grid x block geometry: the one-phase case
  /// of LaunchPhases.  Throws GpuError for configurations the device
  /// cannot run.
  void Launch(Dim3 grid, Dim3 block, const LaunchOptions& opts,
              const KernelFn& kernel) {
    LaunchPhases(grid, block, opts, std::span<const KernelFn>(&kernel, 1));
  }

  /// Convenience overload with default options.
  void Launch(Dim3 grid, Dim3 block, const KernelFn& kernel) {
    Launch(grid, block, LaunchOptions{}, kernel);
  }

  /// Launches a kernel that is split at its barriers into \p phases (the
  /// loop fission of MCUDA, Stratton et al., LCPC 2008): each block runs
  /// phase k for every thread, in linear thread order, before any of its
  /// threads starts phase k + 1, so every block-wide barrier of the CUDA
  /// kernel is a phase boundary.  Shared memory and each thread's charge
  /// carry over from phase to phase; a value a thread keeps across a
  /// barrier lives in shared or global memory, and a thread that returns
  /// early returns from its current phase only.  Throws GpuError for an
  /// empty phase list and for configurations the device cannot run.
  void LaunchPhases(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                    std::span<const KernelFn> phases);

  /// cudaDeviceSynchronize.  Execution is already synchronous; this is the
  /// fence the paper calls out after the four kernel launches (Section VI-D)
  /// and it charges the model's synchronization overhead.
  void Synchronize();

  /// Accumulated simulated device-side seconds (kernels + transfers).
  double sim_time_s() const { return sim_time_s_; }
  /// Resets the simulated clock (not the profiler).
  void ResetClock() { sim_time_s_ = 0.0; }

  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }
  const TimingModel& timing_model() const { return model_; }

  /// Execution backend for this device's launches (see exec/backend.hpp).
  /// Defaults to the process-wide CDD_EXEC_BACKEND resolution; the serve
  /// layer and the CLIs override it per device.  Never changes results or
  /// modeled times — only which host threads run the blocks.
  void set_exec_backend(exec::ExecBackend backend) {
    exec_backend_ = backend;
  }
  exec::ExecBackend exec_backend() const { return exec_backend_; }

  /// Hard per-device override of the block-execution worker cap (>=1).
  /// 1 forces serial execution regardless of backend; >1 forces
  /// host-parallel execution with that participation cap (what the race
  /// tests use).  Unset, the cap derives from the backend: 1 for kSerial,
  /// exec::ActiveExecWorkers() for kHostParallel.
  void set_worker_threads(unsigned workers);
  /// The effective worker cap launches run with (>=1).
  unsigned worker_threads() const;

  /// Validates a launch configuration without launching (used by the
  /// launch-config helper and the tests).
  void ValidateLaunch(Dim3 grid, Dim3 block,
                      std::size_t shared_bytes) const;

  // --- hooks for DeviceBuffer / ConstantBuffer ---------------------------
  void RegisterAlloc(std::size_t bytes, bool constant);
  void ReleaseAlloc(std::size_t bytes, bool constant) noexcept;
  void RecordH2D(std::size_t bytes);
  void RecordD2H(std::size_t bytes);
  std::size_t allocated_bytes() const { return allocated_; }

 private:
  void RunBlocksSequential(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                           std::span<const KernelFn> phases,
                           std::uint64_t& total_work,
                           std::uint64_t& max_work);
  void RunBlocksParallel(Dim3 grid, Dim3 block, const LaunchOptions& opts,
                         std::span<const KernelFn> phases, unsigned cap,
                         std::uint64_t& total_work,
                         std::uint64_t& max_work);

  DeviceProperties props_;
  TimingModel model_;
  Profiler profiler_;
  double sim_time_s_ = 0.0;
  exec::ExecBackend exec_backend_ = exec::ActiveExecBackend();
  unsigned workers_ = 0;  ///< 0 = derive the cap from exec_backend_
  std::size_t allocated_ = 0;
  std::size_t constant_allocated_ = 0;
};

}  // namespace cdd::sim
