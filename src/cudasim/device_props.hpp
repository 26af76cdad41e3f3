#pragma once
/// \file device_props.hpp
/// \brief Static description of a simulated GPU, with presets.
///
/// The properties feed two consumers: launch-configuration validation
/// (max threads per block, shared memory limits) and the analytic timing
/// model (SMs, cores, clock, transfer bandwidth) described in DESIGN.md §5.5.

#include <cstdint>
#include <string>

namespace cdd::sim {

/// Capability and performance description of a simulated device.
struct DeviceProperties {
  std::string name = "Simulated GPU";

  // --- capability limits (validated at launch time) -----------------------
  std::uint32_t max_threads_per_block = 1024;
  std::uint32_t max_block_dim_x = 1024;
  std::uint32_t max_block_dim_y = 1024;
  std::uint32_t max_block_dim_z = 64;
  std::uint32_t max_grid_dim_x = 65535;
  std::size_t shared_mem_per_block = 48 * 1024;  ///< bytes
  std::size_t constant_mem = 64 * 1024;          ///< bytes
  std::size_t global_mem = 2ull * 1024 * 1024 * 1024;  ///< bytes

  // --- occupancy model ----------------------------------------------------
  std::uint32_t sm_count = 4;
  std::uint32_t cores_per_sm = 48;  ///< scalar lanes ("CUDA cores") per SM
  std::uint32_t warp_size = 32;
  std::uint32_t max_threads_per_sm = 1536;
  std::uint32_t max_blocks_per_sm = 8;
  std::uint32_t registers_per_sm = 32768;

  // --- timing model -------------------------------------------------------
  double clock_hz = 1.55e9;           ///< shader clock
  double h2d_bandwidth = 6.0e9;       ///< bytes/s (PCIe 2.0 x16 effective)
  double d2h_bandwidth = 6.0e9;       ///< bytes/s
  double transfer_latency_s = 10e-6;  ///< fixed per-copy cost
  double launch_overhead_s = 5e-6;    ///< fixed per-kernel-launch cost
  /// Shader cycles consumed by one abstract work unit charged via
  /// ThreadCtx::charge().  Kernels charge roughly one unit per executed
  /// inner-loop step (an int64 compare/add plus a memory access plus
  /// branching — tens to hundreds of effective cycles on a Fermi/Kepler
  /// part once divergence and memory stalls are included).  The default is
  /// calibrated against the paper's one GPU runtime anchor: SA with 5000
  /// generations, 768 chains and n = 1000 jobs takes 17.26 s on the
  /// GT 560M (Section VIII-A), which this preset reproduces to within a
  /// few percent.  See EXPERIMENTS.md "Calibration".
  double cycles_per_work_unit = 312.0;

  /// Relative cost of a work unit whose memory traffic is served by the
  /// other on-chip paths (global memory through L2 is the 1.0 baseline
  /// folded into cycles_per_work_unit).  Shared memory has the lowest
  /// latency (Section VI-A's motivation for staging the penalties);
  /// the read-only texture path with its spatial cache sits in between —
  /// the paper's "future work" hypothesis, quantified by
  /// bench_ablation_texture.
  double shared_cost_factor = 0.55;
  double texture_cost_factor = 0.72;

  /// Maximum number of thread blocks resident on one SM for a launch with
  /// \p threads_per_block threads.
  std::uint32_t ResidentBlocksPerSm(std::uint32_t threads_per_block) const;
};

/// The paper's device: GeForce GT 560M, 192 CUDA cores in 4 SMs,
/// 2 GB device memory (Section VIII).
DeviceProperties GeForceGT560M();

/// A single-SM toy device: every block is a wave, which makes the wave
/// arithmetic of the timing model directly observable in tests.
DeviceProperties TinyDevice();

}  // namespace cdd::sim
