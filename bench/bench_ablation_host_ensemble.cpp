/// \file bench_ablation_host_ensemble.cpp
/// \brief Extension beyond the paper: the same asynchronous ensemble SA on
/// host threads (std::thread), compared against the modeled GPU run and
/// the single-chain serial baseline at matched evaluation budgets.
/// Answers "would a multicore CPU have been enough?" for the paper's
/// workloads.

#include <algorithm>
#include <iostream>
#include <thread>

#include "benchutil/campaign.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/sweeps.hpp"
#include "cudasim/device.hpp"
#include "meta/host_ensemble.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Host-thread ensemble vs modeled GPU ensemble.\n"
                 "Flags: --sizes list --chains N --gens G --threads T "
                 "--seed S\n";
    return 0;
  }
  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {50, 200});
  const auto chains = static_cast<std::uint32_t>(args.GetInt("chains", 64));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 500));
  const auto threads =
      static_cast<std::uint32_t>(args.GetInt("threads", 0));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  benchutil::Sweep sweep;
  sweep.seed = seed;

  std::cout << "=== Extension: host-thread ensemble SA vs modeled GPU "
               "ensemble (" << chains << " chains x " << gens
            << " generations, host threads: "
            << (threads == 0 ? std::thread::hardware_concurrency()
                             : threads)
            << ") ===\n";
  benchutil::TextTable table({"n", "host best", "host wall [s]",
                              "gpu best", "gpu modeled [s]",
                              "host evals", "gpu evals"});
  for (const std::uint32_t n : sizes) {
    const Instance instance =
        benchrun::MakeSweepInstance(Problem::kCdd, sweep, n, 0);
    const meta::Objective objective =
        meta::Objective::ForInstance(instance);

    meta::HostEnsembleParams host;
    host.chains = chains;
    host.threads = threads;
    host.chain.budget.iterations = gens;
    host.chain.budget.seed = seed;
    host.chain.temp_samples = 1000;
    const meta::RunResult host_result =
        meta::RunHostEnsembleSa(objective, host);

    sim::Device gpu;
    par::ParallelSaParams gpu_params;
    gpu_params.config =
        par::LaunchConfig::ForEnsemble(chains, std::min(chains, 64u));
    gpu_params.budget.iterations = gens;
    gpu_params.temp_samples = 1000;
    gpu_params.budget.seed = seed;
    const par::GpuRunResult gpu_result =
        par::RunParallelSa(gpu, instance, gpu_params);

    table.AddRow({std::to_string(n), std::to_string(host_result.best_cost),
                  benchutil::FmtDouble(host_result.wall_seconds, 3),
                  std::to_string(gpu_result.best_cost),
                  benchutil::FmtDouble(gpu_result.device_seconds, 3),
                  std::to_string(host_result.evaluations),
                  std::to_string(gpu_result.evaluations)});
  }
  std::cout << table.ToString();
  std::cout << "\nNote: 'host wall' is real time on this machine; 'gpu "
               "modeled' is GT 560M device time from the calibrated "
               "model.  Quality differs only through RNG consumption "
               "(host chains draw one stream per chain, GPU chains one "
               "stream per kernel phase).\n";
  return 0;
}
