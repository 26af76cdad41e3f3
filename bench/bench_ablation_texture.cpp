/// \file bench_ablation_texture.cpp
/// \brief Section IX's future work, quantified: where should the fitness
/// kernel read the penalty arrays from?  Compares the paper's shared-memory
/// staging (Section VI-A), the read-only texture path with its spatial
/// cache (the "future work" hypothesis), and plain global memory, on the
/// device model.  Results are identical bit for bit across the three —
/// only the modeled time changes.

#include <iostream>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/sweeps.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Penalty-memory ablation (shared vs texture vs global).\n"
                 "Flags: --sizes list --ensemble N --block B --gens G "
                 "--seed S\n";
    return 0;
  }
  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {50, 200, 1000});
  const auto ensemble =
      static_cast<std::uint32_t>(args.GetInt("ensemble", 768));
  const auto block = static_cast<std::uint32_t>(args.GetInt("block", 192));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 40));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  benchutil::Sweep sweep;
  sweep.seed = seed;

  std::cout << "=== Ablation: fitness-kernel penalty memory (UCDDCP, "
            << ensemble << " chains, " << gens << " generations) ===\n";
  benchutil::TextTable table({"n", "shared [ms]", "texture [ms]",
                              "global [ms]", "texture vs shared",
                              "cost identical"});
  for (const std::uint32_t n : sizes) {
    const Instance instance =
        benchrun::MakeSweepInstance(Problem::kUcddcp, sweep, n, 0);
    double ms[3] = {0, 0, 0};
    Cost costs[3] = {0, 0, 0};
    const par::detail::PenaltyMemory kinds[3] = {
        par::detail::PenaltyMemory::kShared,
        par::detail::PenaltyMemory::kTexture,
        par::detail::PenaltyMemory::kGlobal};
    for (int k = 0; k < 3; ++k) {
      sim::Device gpu(sim::GeForceGT560M());
      par::ParallelSaParams params;
      params.config = par::LaunchConfig::ForEnsemble(ensemble, block);
      params.budget.iterations = gens;
      params.temp_samples = 200;
      params.budget.seed = seed;
      params.penalty_memory = kinds[k];
      const par::GpuRunResult result =
          par::RunParallelSa(gpu, instance, params);
      ms[k] = result.device_seconds * 1e3;
      costs[k] = result.best_cost;
    }
    table.AddRow({std::to_string(n), benchutil::FmtDouble(ms[0], 2),
                  benchutil::FmtDouble(ms[1], 2),
                  benchutil::FmtDouble(ms[2], 2),
                  benchutil::FmtDouble(ms[1] / ms[0], 3),
                  (costs[0] == costs[1] && costs[1] == costs[2]) ? "yes"
                                                                 : "NO"});
  }
  std::cout << table.ToString();
  std::cout << "\nExpected: global slowest, shared fastest, texture in "
               "between — the texture path would recover most of the "
               "shared-memory benefit without the staging barrier, "
               "supporting the paper's future-work hypothesis.\n";
  return 0;
}
