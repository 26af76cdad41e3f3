#pragma once
/// \file multi_device.hpp
/// \brief Multi-GPU ensemble SA — scaling the paper's approach the way its
/// related work does (Chakroun et al. [1] combine multiple compute
/// resources for branch and bound).
///
/// The asynchronous ensemble is embarrassingly parallel across devices:
/// each device runs an independent sub-ensemble (decorrelated by a
/// device-indexed seed), results reduce on the host, and because the
/// devices run concurrently the modeled time of the fleet is the *maximum*
/// of the per-device times, not the sum.

#include <span>

#include "parallel/parallel_sa.hpp"

namespace cdd::par {

/// Result of a multi-device run.
struct MultiDeviceResult {
  GpuRunResult best;            ///< overall winner across devices
  std::size_t winning_device = 0;
  double fleet_seconds = 0.0;   ///< max over the devices (concurrent)
  double total_device_seconds = 0.0;  ///< sum (for energy-style accounting)
};

/// Runs the asynchronous parallel SA on every device in \p devices with
/// the same per-device configuration.  Device i uses seed
/// params.budget.seed + i * kDeviceSeedStride, so adding devices never
/// perturbs the existing ones' results (fleet quality is monotone in fleet size).
MultiDeviceResult RunParallelSaMultiDevice(
    std::span<sim::Device* const> devices, const Instance& instance,
    const ParallelSaParams& params);

inline constexpr std::uint64_t kDeviceSeedStride = 0x9e3779b97f4a7c15ULL;

}  // namespace cdd::par
