/// \file bench_ablation_sync_vs_async.cpp
/// \brief Experiment E10 — Section V / VI: the paper chose asynchronous
/// over synchronous multi-chain SA citing premature convergence of the
/// latter.  This ablation puts numbers on both sides: solution quality,
/// modeled device time (the synchronous variant pays reduction/broadcast
/// communication every level), and the ensemble-diversity trace.

#include <iostream>

#include "benchutil/campaign.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/sweeps.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_sa.hpp"
#include "parallel/parallel_sa_sync.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Async-vs-sync parallel SA ablation.\n"
                 "Flags: --n JOBS --ensemble N --block B --gens G "
                 "--chain M --instances K --seed S\n";
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(args.GetInt("n", 100));
  const auto ensemble =
      static_cast<std::uint32_t>(args.GetInt("ensemble", 128));
  const auto block = static_cast<std::uint32_t>(args.GetInt("block", 64));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 500));
  const auto chain = static_cast<std::uint32_t>(args.GetInt("chain", 10));
  const auto instances =
      static_cast<std::uint32_t>(args.GetInt("instances", 5));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  benchutil::Sweep sweep;
  sweep.seed = seed;

  std::cout << "=== Ablation: asynchronous vs synchronous parallel SA, "
               "CDD n=" << n << ", matched budget " << gens
            << " evaluations/chain ===\n";
  benchutil::TextTable table({"instance", "async cost", "sync cost",
                              "async dev [ms]", "sync dev [ms]",
                              "final diversity"});
  int async_quality_wins = 0;
  for (std::uint32_t k = 0; k < instances; ++k) {
    const Instance instance =
        benchrun::MakeSweepInstance(Problem::kCdd, sweep, n, k);

    par::ParallelSaParams ap;
    ap.config = par::LaunchConfig::ForEnsemble(ensemble, block);
    ap.budget.iterations = gens;
    ap.temp_samples = 500;
    ap.budget.seed = seed;
    sim::Device da;
    const par::GpuRunResult ra = par::RunParallelSa(da, instance, ap);

    par::ParallelSaSyncParams sp;
    sp.config = ap.config;
    sp.budget.iterations = gens / chain;
    sp.chain_length = chain;
    sp.temp_samples = 500;
    sp.budget.seed = seed;
    sp.record_diversity = true;
    sim::Device ds;
    const par::GpuRunResult rs = par::RunParallelSaSync(ds, instance, sp);

    if (ra.best_cost <= rs.best_cost) ++async_quality_wins;
    table.AddRow({std::to_string(k), std::to_string(ra.best_cost),
                  std::to_string(rs.best_cost),
                  benchutil::FmtDouble(ra.device_seconds * 1e3, 2),
                  benchutil::FmtDouble(rs.device_seconds * 1e3, 2),
                  benchutil::FmtDouble(
                      rs.diversity.empty() ? 0.0 : rs.diversity.back(),
                      1)});
  }
  std::cout << table.ToString();
  std::cout << "\nasync quality wins/ties: " << async_quality_wins << "/"
            << instances << "\n";
  std::cout << "\nPaper claim vs this reproduction: the communication "
               "overhead (sync device time > async at equal budget) and "
               "the diversity collapse (final diversity << n) reproduce; "
               "the *quality* disadvantage of sync does not reproduce "
               "robustly at bench scales — our elitist broadcast often "
               "helps.  Recorded as a deviation in EXPERIMENTS.md §E10.\n";
  return 0;
}
