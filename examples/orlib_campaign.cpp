/// \file orlib_campaign.cpp
/// \brief Benchmark campaign over OR-library-style CDD instances: generate
/// (or load) a benchmark set, solve every instance with the GPU-parallel
/// SA, and maintain a best-known-value registry on disk.
///
///   ./examples/orlib_campaign [--file path/to/sch10.txt] [--sizes 10,20]
///                             [--instances 4] [--gens 500]
///                             [--registry bestknown.csv]
///
/// With --file, instances are read from an OR-library sch file (3 columns
/// per job) and the h grid {0.2,0.4,0.6,0.8} is applied; otherwise the
/// built-in Biskup-Feldmann generator is used.

#include <fstream>
#include <iostream>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "cudasim/device.hpp"
#include "orlib/bestknown.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "orlib/schfile.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);

  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {10, 20, 50});
  const auto instances =
      static_cast<std::uint32_t>(args.GetInt("instances", 3));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 500));
  const std::string registry_path =
      args.GetString("registry", "bestknown.csv");

  orlib::BestKnownRegistry registry;
  registry.LoadCsv(registry_path);
  std::cout << "registry: " << registry.size() << " known values loaded "
            << "from " << registry_path << "\n";

  // Collect (key, instance) pairs.
  std::vector<std::pair<std::string, Instance>> campaign;
  const std::string file = args.GetString("file", "");
  if (!file.empty()) {
    std::vector<orlib::JobTable> tables;
    try {
      tables = orlib::LoadCddFile(file);
    } catch (const orlib::SchParseError& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    std::cout << "loaded " << tables.size() << " instances from " << file
              << "\n";
    for (std::size_t k = 0; k < tables.size(); ++k) {
      for (const double h : orlib::kPaperH) {
        char key[128];
        std::snprintf(key, sizeof key, "%s-k%zu-h%.2f", file.c_str(), k, h);
        campaign.emplace_back(key, orlib::MakeCddInstance(tables[k], h));
      }
    }
  } else {
    const orlib::BiskupFeldmannGenerator gen;
    for (const std::uint32_t n : sizes) {
      for (std::uint32_t k = 0; k < instances; ++k) {
        for (const double h : {0.4, 0.8}) {
          campaign.emplace_back(orlib::CddKey(n, k, h), gen.Cdd(n, k, h));
        }
      }
    }
  }

  benchutil::TextTable table(
      {"instance", "n", "h", "cost", "best known", "%D", "GPU [ms]"});
  std::size_t improved = 0;
  for (const auto& [key, instance] : campaign) {
    sim::Device gpu;
    par::ParallelSaParams params;
    params.config = par::LaunchConfig::ForEnsemble(128, 64);
    params.budget.iterations = gens;
    params.vshape_init = true;
    const par::GpuRunResult result =
        par::RunParallelSa(gpu, instance, params);

    const auto previous = registry.Find(key);
    if (registry.Update(key, result.best_cost) && previous.has_value()) {
      ++improved;
    }
    const Cost best = registry.Find(key).value();
    table.AddRow(
        {key, std::to_string(instance.size()),
         benchutil::FmtDouble(instance.restrictiveness(), 2),
         std::to_string(result.best_cost), std::to_string(best),
         benchutil::FmtDouble(
             best == 0 ? 0.0
                       : 100.0 *
                             static_cast<double>(result.best_cost - best) /
                             static_cast<double>(best),
             3),
         benchutil::FmtDouble(result.device_seconds * 1e3, 1)});
  }
  std::cout << table.ToString();

  registry.SaveCsv(registry_path);
  std::cout << "\nregistry now holds " << registry.size() << " values ("
            << improved << " improved this run); saved to "
            << registry_path << "\n";
  return 0;
}
