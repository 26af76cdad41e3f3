/// \file controllable_machine.cpp
/// \brief Domain scenario for the UCDDCP: a machine that can run faster at
/// a cost.  Compares the rigid (CDD) and controllable (UCDDCP) optima on a
/// make-to-order workload and breaks the savings down per job — the
/// decision the compression penalties gamma_i model (fuel, tool wear).
///
///   ./examples/controllable_machine [--jobs 12] [--seed 7] [--gens 800]

#include <iostream>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/schedule.hpp"
#include "cudasim/device.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "parallel/parallel_sa.hpp"

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.GetInt("jobs", 12));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 7));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 800));

  // A make-to-order shop: all n orders promised for the same delivery slot
  // (the common due date).  Finishing early means storage cost alpha_i per
  // day; late means contract penalty beta_i per day; rushing a job costs
  // gamma_i per day saved and cannot go below M_i.
  const orlib::BiskupFeldmannGenerator gen(seed);
  const Instance shop = gen.Ucddcp(n, 0);
  std::cout << "Workload: " << shop.Summary() << "  (delivery slot t="
            << shop.due_date() << ")\n\n";

  // ---- rigid machine: no compression allowed -----------------------------
  sim::Device gpu;
  par::ParallelSaParams params;
  params.config = par::LaunchConfig::ForEnsemble(128, 64);
  params.budget.iterations = gens;
  params.vshape_init = true;
  params.budget.seed = seed;

  const Instance rigid = shop.as_cdd().with_due_date(shop.due_date());
  const par::GpuRunResult rigid_result =
      par::RunParallelSa(gpu, rigid, params);

  // ---- controllable machine: same search, compressions co-optimized -----
  const par::GpuRunResult flex_result =
      par::RunParallelSa(gpu, shop, params);

  std::cout << "rigid machine cost:        " << rigid_result.best_cost
            << "\n";
  std::cout << "controllable machine cost: " << flex_result.best_cost
            << "  (saves "
            << rigid_result.best_cost - flex_result.best_cost << ")\n\n";

  // ---- inspect the controllable solution ---------------------------------
  const UcddcpEvaluator evaluator(shop);
  const Schedule plan = evaluator.BuildSchedule(flex_result.best);
  std::cout << "Plan (A = first job processed):\n"
            << RenderGantt(shop, plan) << "\n";

  benchutil::TextTable detail({"slot", "job", "P", "rushed by", "starts",
                               "done", "lateness", "rush cost"});
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const Job& job = shop.job(static_cast<std::size_t>(plan.order[k]));
    const Time lateness = plan.completion[k] - shop.due_date();
    detail.AddRow({std::to_string(k), std::to_string(plan.order[k]),
                   std::to_string(job.proc),
                   std::to_string(plan.compression[k]),
                   std::to_string(StartTime(shop, plan, k)),
                   std::to_string(plan.completion[k]),
                   std::to_string(lateness),
                   std::to_string(job.compress * plan.compression[k])});
  }
  std::cout << detail.ToString();
  std::cout << "\nReading the plan: jobs finishing exactly at t="
            << shop.due_date()
            << " pay nothing; compressed jobs (rushed by > 0) traded "
               "gamma per day against the earliness/tardiness they saved "
               "(Properties 1 and 2 of the paper).\n";
  return 0;
}
