#include "parallel/multi_device.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cudasim/exec/backend.hpp"

namespace cdd::par {

MultiDeviceResult RunParallelSaMultiDevice(
    std::span<sim::Device* const> devices, const Instance& instance,
    const ParallelSaParams& params) {
  if (devices.empty()) {
    throw std::invalid_argument(
        "RunParallelSaMultiDevice: no devices supplied");
  }
  for (sim::Device* device : devices) {
    if (device == nullptr) {
      throw std::invalid_argument(
          "RunParallelSaMultiDevice: null device pointer");
    }
  }

  // Each device's run is fully independent (distinct Device, distinct
  // seed stream), so under the host-parallel exec backend the fleet runs
  // concurrently — one host thread per device, each of which additionally
  // fans its blocks out over the shared exec pool.  Results land in a
  // device-indexed slot and the reduction below walks them in device
  // order, so the winner (ties break toward the lowest device index) is
  // identical to the serial fleet loop.
  std::vector<GpuRunResult> runs(devices.size());
  const auto run_one = [&](std::size_t i) {
    ParallelSaParams mine = params;
    mine.budget.seed = params.budget.seed + i * kDeviceSeedStride;
    runs[i] = RunParallelSa(*devices[i], instance, mine);
  };
  if (sim::exec::ActiveExecBackend() ==
          sim::exec::ExecBackend::kHostParallel &&
      devices.size() > 1) {
    std::vector<std::exception_ptr> errors(devices.size());
    std::vector<std::thread> threads;
    threads.reserve(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          run_one(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::exception_ptr& error : errors) {
      // Lowest device index first: the surfaced error is deterministic.
      if (error) std::rethrow_exception(error);
    }
  } else {
    for (std::size_t i = 0; i < devices.size(); ++i) run_one(i);
  }

  MultiDeviceResult result;
  result.best.best_cost = kInfiniteCost;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const GpuRunResult& run = runs[i];
    result.fleet_seconds =
        std::max(result.fleet_seconds, run.device_seconds);
    result.total_device_seconds += run.device_seconds;
    result.best.evaluations += run.evaluations;
    if (run.best_cost < result.best.best_cost) {
      // Keep the winner's sequence/cost and timing diagnostics.
      const std::uint64_t evals = result.best.evaluations;
      result.best = run;
      result.best.evaluations = evals;
      result.winning_device = i;
    }
  }
  result.best.device_seconds = result.fleet_seconds;
  return result;
}

}  // namespace cdd::par
