/// \file bench_ablation_reduction.cpp
/// \brief Section VI-D's design choice, quantified: the paper reduces the
/// ensemble best with one atomicMin per thread ("inside the L2-Cache ...
/// although the full process results in a sequential execution order").
/// This ablation compares it against the canonical shared-memory tree
/// reduction at several ensemble sizes — results are identical, only the
/// modeled time differs.

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
    std::cout << "Reduction-kernel ablation (atomic vs tree).\n"
                 "Flags: --n JOBS --gens G --ensembles list --block B "
                 "--seed S\n";
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(args.GetInt("n", 100));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 60));
  const auto block = static_cast<std::uint32_t>(args.GetInt("block", 192));
  const std::vector<std::uint32_t> ensembles =
      args.GetUintList("ensembles", {192, 768, 3072, 12288});
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  benchutil::Sweep sweep;
  sweep.seed = seed;
  const Instance instance =
      benchrun::MakeSweepInstance(Problem::kCdd, sweep, n, 0);

  std::cout << "=== Ablation: reduction kernel (atomic vs shared-memory "
               "tree), CDD n=" << n << ", " << gens
            << " generations ===\n";
  benchutil::TextTable table({"ensemble", "atomic [ms]", "tree [ms]",
                              "reduction share atomic",
                              "cost identical"});
  for (const std::uint32_t ensemble : ensembles) {
    double ms[2];
    double reduction_share = 0.0;
    Cost costs[2];
    const par::detail::ReductionKind kinds[2] = {
        par::detail::ReductionKind::kAtomic,
        par::detail::ReductionKind::kTree};
    for (int k = 0; k < 2; ++k) {
      sim::Device gpu(sim::GeForceGT560M());
      par::ParallelSaParams params;
      params.config = par::LaunchConfig::ForEnsemble(ensemble, block);
      params.budget.iterations = gens;
      params.temp_samples = 200;
      params.budget.seed = seed;
      params.reduction = kinds[k];
      const par::GpuRunResult result =
          par::RunParallelSa(gpu, instance, params);
      ms[k] = result.device_seconds * 1e3;
      costs[k] = result.best_cost;
      if (k == 0) {
        const auto* rec = gpu.profiler().Find("sa_reduction");
        reduction_share =
            rec == nullptr ? 0.0
                           : rec->sim_time_s / result.device_seconds;
      }
    }
    table.AddRow({std::to_string(ensemble),
                  benchutil::FmtDouble(ms[0], 2),
                  benchutil::FmtDouble(ms[1], 2),
                  benchutil::FmtDouble(reduction_share * 100.0, 1) + " %",
                  costs[0] == costs[1] ? "yes" : "NO"});
  }
  std::cout << table.ToString();
  std::cout << "\nExpected: at the paper's 768 chains the atomic variant "
               "is fine (its serialization is tiny next to the fitness "
               "work — the paper's observation); the tree variant wins as "
               "the ensemble grows and the atomic queue becomes the "
               "critical path.\n";
  return 0;
}
