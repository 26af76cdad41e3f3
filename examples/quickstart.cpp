/// \file quickstart.cpp
/// \brief Five-minute tour of the library using the paper's Table I data:
/// build an instance, evaluate a sequence with the O(n) algorithms, run
/// the GPU-parallel SA, and inspect the resulting schedule.
///
///   ./examples/quickstart

#include <iostream>

#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_sa.hpp"

int main() {
  using namespace cdd;

  // ---- 1. The paper's illustrative instance (Table I) -------------------
  // Five jobs with processing times P, earliness penalties alpha, tardiness
  // penalties beta; common due date d = 16 for the CDD illustration.
  const Instance cdd_instance(Problem::kCdd, /*d=*/16,
                              /*proc=*/{6, 5, 2, 4, 4},
                              /*early=*/{7, 9, 6, 9, 3},
                              /*tardy=*/{9, 5, 4, 3, 2});
  cdd_instance.Validate();
  std::cout << "Instance: " << cdd_instance.Summary() << "\n\n";

  // ---- 2. Layer (ii): optimal schedule of a FIXED sequence in O(n) ------
  const CddEvaluator evaluator(cdd_instance);
  const Sequence order = IdentitySequence(5);
  std::cout << "Cost of sequence 1..5 (paper Figure 3 says 81): "
            << evaluator.Evaluate(order) << "\n";
  const Schedule schedule = evaluator.BuildSchedule(order);
  std::cout << RenderGantt(cdd_instance, schedule) << "\n";

  // ---- 3. Layer (i): search over sequences with GPU-parallel SA ---------
  sim::Device gpu(sim::GeForceGT560M());
  par::ParallelSaParams params;      // 4 blocks x 192 threads,
  params.budget.iterations = 200;    // mu = 0.88, Pert = 4
  const par::GpuRunResult result =
      par::RunParallelSa(gpu, cdd_instance, params);
  std::cout << "Parallel SA best cost: " << result.best_cost << "  ("
            << result.evaluations << " evaluations, modeled GT 560M time "
            << result.device_seconds * 1e3 << " ms)\n";
  std::cout << RenderGantt(cdd_instance,
                           evaluator.BuildSchedule(result.best))
            << "\n";

  // ---- 4. The controllable-processing-times variant (UCDDCP) ------------
  const Instance ucddcp_instance(Problem::kUcddcp, /*d=*/22,
                                 /*proc=*/{6, 5, 2, 4, 4},
                                 /*early=*/{7, 9, 6, 9, 3},
                                 /*tardy=*/{9, 5, 4, 3, 2},
                                 /*min_proc=*/{5, 5, 2, 3, 3},
                                 /*compress=*/{5, 4, 3, 2, 1});
  const UcddcpEvaluator ucddcp_eval(ucddcp_instance);
  std::cout << "UCDDCP cost of sequence 1..5 (paper Figure 6 says 77): "
            << ucddcp_eval.Evaluate(order) << "\n";
  std::cout << RenderGantt(ucddcp_instance,
                           ucddcp_eval.BuildSchedule(order));

  // ---- 5. What did the simulated GPU do? ---------------------------------
  std::cout << "\nProfiler:\n" << gpu.profiler().Report();
  return 0;
}
