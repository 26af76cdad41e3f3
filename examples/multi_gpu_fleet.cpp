/// \file multi_gpu_fleet.cpp
/// \brief Scaling the paper's ensemble across several (simulated) GPUs —
/// the direction the related work of Chakroun et al. [1] points at.
///
/// Solves one large CDD instance with 1, 2 and 4 devices, each running the
/// full four-kernel pipeline; shows fleet quality and modeled wall time
/// (devices run concurrently, so fleet time is the slowest device).
///
///   ./examples/multi_gpu_fleet [--jobs 200] [--gens 400] [--seed 5]

#include <iostream>
#include <memory>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "parallel/multi_device.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.GetInt("jobs", 200));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 400));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 5));

  const orlib::BiskupFeldmannGenerator gen(seed);
  const Instance instance = gen.Cdd(n, 0, 0.6);
  std::cout << "instance: " << instance.Summary() << "\n\n";

  par::ParallelSaParams params;  // the paper's 4 x 192 per device
  params.budget.iterations = gens;
  params.budget.seed = seed;
  params.vshape_init = true;

  benchutil::TextTable table({"devices", "best cost", "fleet time [s]",
                              "total device time [s]", "evaluations",
                              "winner"});
  for (const std::size_t count : {1u, 2u, 4u}) {
    std::vector<std::unique_ptr<sim::Device>> owned;
    std::vector<sim::Device*> fleet;
    for (std::size_t i = 0; i < count; ++i) {
      owned.push_back(
          std::make_unique<sim::Device>(sim::GeForceGT560M()));
      fleet.push_back(owned.back().get());
    }
    const par::MultiDeviceResult result =
        par::RunParallelSaMultiDevice(fleet, instance, params);
    table.AddRow({std::to_string(count),
                  std::to_string(result.best.best_cost),
                  benchutil::FmtDouble(result.fleet_seconds, 3),
                  benchutil::FmtDouble(result.total_device_seconds, 3),
                  std::to_string(result.best.evaluations),
                  "device " + std::to_string(result.winning_device)});
  }
  std::cout << table.ToString();
  std::cout << "\nFleet time stays flat while evaluations (and quality) "
               "scale with the device count — the ensemble is "
               "embarrassingly parallel across GPUs.\n";
  return 0;
}
