/// \file bench_fig11_thread_gen_surface.cpp
/// \brief Experiment E8 — Figure 11: runtime of the parallel UCDDCP
/// fitness evaluations as a function of the thread count (population size)
/// and the number of generations.
///
/// The paper uses this surface to argue the threads-vs-iterations
/// trade-off: both axes grow the runtime, and pushing the thread count
/// past the device's resident capacity serializes block waves.

#include <iostream>

#include "benchutil/campaign.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/sweeps.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Regenerates Figure 11 (runtime vs threads x "
                 "generations, UCDDCP).\n"
                 "Flags: --n JOBS (default 100) --block B (default 192) "
                 "--threads list --gens list --seed S\n";
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(args.GetInt("n", 100));
  const auto block = static_cast<std::uint32_t>(args.GetInt("block", 192));
  const std::vector<std::uint32_t> thread_axis =
      args.GetUintList("threads", {192, 384, 768, 1536, 3072});
  const std::vector<std::uint32_t> gen_axis =
      args.GetUintList("gens", {100, 200, 400, 800});
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  benchutil::Sweep sweep;
  sweep.seed = seed;
  const Instance instance =
      benchrun::MakeSweepInstance(Problem::kUcddcp, sweep, n, 0);

  std::cout << "=== Fig 11: modeled GT 560M runtime [s], UCDDCP n=" << n
            << ", block=" << block << " ===\n";
  std::vector<std::string> header{"threads \\ gens"};
  for (const std::uint32_t g : gen_axis) header.push_back(std::to_string(g));
  benchutil::TextTable table(header);

  for (const std::uint32_t threads : thread_axis) {
    // Calibrate per-generation device time with a short real run and
    // extrapolate along the generation axis (device time is affine in
    // generations by construction of the pipeline).
    par::ParallelSaParams params;
    params.config = par::LaunchConfig::ForEnsemble(threads, block);
    params.temp_samples = 200;
    params.budget.seed = seed;

    params.budget.iterations = 4;
    sim::Device d_short;
    const double t4 =
        par::RunParallelSa(d_short, instance, params).device_seconds;
    params.budget.iterations = 12;
    sim::Device d_long;
    const double t12 =
        par::RunParallelSa(d_long, instance, params).device_seconds;
    const double per_gen = (t12 - t4) / 8.0;
    const double setup = t4 - per_gen * 4.0;

    std::vector<std::string> row{std::to_string(threads)};
    for (const std::uint32_t g : gen_axis) {
      row.push_back(benchutil::FmtDouble(setup + per_gen * g, 3));
    }
    table.AddRow(row);
  }
  std::cout << table.ToString();
  std::cout << "\nPaper shape to verify: runtime increases along both "
               "axes; thread counts past the device's one-wave capacity "
               "(32 blocks x 192 threads = 6144 on the GT 560M preset, "
               "i.e. already > 1 wave at 1536 with block 192 when "
               "resident-block limits bind) grow super-proportionally.\n";
  return 0;
}
