/// \file bench_exec_scaling.cpp
/// \brief Experiment: wall-clock scaling of the host-parallel execution
/// backend, with determinism pinned.
///
/// The virtual-clock separation promises that block execution placement
/// changes *only* wall-clock time: the modeled GT 560M seconds, the best
/// cost and the evaluation count must be bit-identical at every worker
/// count.  This bench runs the paper's workhorse launch shape (a
/// 768-chain parallel SA ensemble) under worker counts 1..hardware
/// concurrency, measures real time per run, and exits nonzero if any
/// worker count changes the answer or the modeled time.
///
///   bench_exec_scaling [--n 200] [--ensemble 768] [--block 192]
///                      [--gens 200] [--seed 1] [--max-workers W]
///                      [--save results/exp_exec_scaling.txt]
///
/// Speedup is relative to the 1-worker (serial-equivalent) run.  On hosts
/// with fewer cores than workers the extra workers just contend — the
/// point of the sweep is to record how far the backend scales on the
/// machine at hand, honestly.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/test_instances.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Host-parallel execution backend scaling sweep.\n"
                 "Flags: --n N --ensemble E --block B --gens G --seed S "
                 "--max-workers W --save PATH\n";
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(args.GetInt("n", 200));
  const auto ensemble =
      static_cast<std::uint32_t>(args.GetInt("ensemble", 768));
  const auto block = static_cast<std::uint32_t>(args.GetInt("block", 192));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 200));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto max_workers = static_cast<unsigned>(
      args.GetInt("max-workers", static_cast<int>(hw)));
  const std::string save_path = args.GetString("save", "");

  const Instance instance = testing::RandomCdd(n, 0.6, seed);

  // Worker counts 1, 2, 4, ... up to the cap, always including the cap —
  // a dense-enough sweep without quadratic bench time on wide machines.
  std::vector<unsigned> workers{1};
  for (unsigned w = 2; w < max_workers; w *= 2) workers.push_back(w);
  if (max_workers > 1) workers.push_back(max_workers);

  std::ostringstream report;
  report << "=== Host-parallel execution scaling (n=" << n << ", "
         << ensemble << " chains x " << gens << " generations, "
         << "hardware threads: " << hw << ") ===\n";
  benchutil::TextTable table({"workers", "wall [s]", "speedup", "best",
                              "modeled [s]", "evals", "identical"});

  Cost best0 = 0;
  double modeled0 = 0;
  std::uint64_t evals0 = 0;
  double wall0 = 0;
  bool all_identical = true;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    sim::Device gpu;
    gpu.set_worker_threads(workers[i]);
    par::ParallelSaParams params;
    params.config = par::LaunchConfig::ForEnsemble(ensemble, block);
    params.budget.iterations = gens;
    params.budget.seed = seed;
    const par::GpuRunResult run = par::RunParallelSa(gpu, instance, params);
    bool identical = true;
    if (i == 0) {
      best0 = run.best_cost;
      modeled0 = run.device_seconds;
      evals0 = run.evaluations;
      wall0 = run.wall_seconds;
    } else {
      identical = run.best_cost == best0 &&
                  run.device_seconds == modeled0 &&
                  run.evaluations == evals0;
    }
    all_identical = all_identical && identical;
    table.AddRow({std::to_string(workers[i]),
                  benchutil::FmtDouble(run.wall_seconds, 3),
                  benchutil::FmtDouble(wall0 / run.wall_seconds, 2),
                  std::to_string(run.best_cost),
                  benchutil::FmtDouble(run.device_seconds, 6),
                  std::to_string(run.evaluations),
                  identical ? "yes" : "NO"});
  }
  report << table.ToString()
         << "\nNote: 'modeled [s]' is GT 560M device time from the "
            "calibrated model and must not move with the worker count — "
            "the backend schedules blocks, the virtual clock stays "
            "serial.  'speedup' is wall-clock relative to 1 worker on "
            "this machine's "
         << hw << " hardware thread(s).\n";

  std::cout << report.str();
  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::cerr << "error: cannot write " << save_path << "\n";
      return 1;
    }
    out << report.str();
    std::cout << "wrote " << save_path << "\n";
  }
  if (!all_identical) {
    std::cerr << "FAIL: worker count changed the best cost, the modeled "
                 "time or the evaluation count\n";
    return 1;
  }
  return 0;
}
