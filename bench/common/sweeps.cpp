#include "common/sweeps.hpp"

#include <algorithm>
#include <ostream>

#include "cudasim/device.hpp"
#include "meta/evostrategy.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"

namespace cdd::benchrun {
namespace {

par::ParallelSaParams SaParamsFor(const benchutil::Sweep& sweep,
                                  std::uint64_t generations,
                                  std::uint64_t seed) {
  par::ParallelSaParams p;
  p.config = par::LaunchConfig::ForEnsemble(sweep.ensemble,
                                            sweep.block_size);
  p.budget.iterations = generations;
  p.temp_samples = 1000;
  p.budget.seed = seed;
  // The quality sweeps seed the ensembles with the V-shape constructive
  // heuristic: the paper leaves the initial configurations open
  // (Section V-A) and this choice brings the short-budget deviations into
  // the regime its tables report (EXPERIMENTS.md "Initialization").
  p.vshape_init = true;
  return p;
}

par::ParallelDpsoParams DpsoParamsFor(const benchutil::Sweep& sweep,
                                      std::uint64_t generations,
                                      std::uint64_t seed) {
  par::ParallelDpsoParams p;
  p.config = par::LaunchConfig::ForEnsemble(sweep.ensemble,
                                            sweep.block_size);
  p.budget.iterations = generations;
  p.budget.seed = seed;
  p.vshape_init = true;  // same initialization policy as the SA sweep
  return p;
}

}  // namespace

std::uint32_t InstancesPerSize(Problem problem,
                               const benchutil::Sweep& sweep) {
  // Both problems sweep instances x h-grid many instances per size (the
  // paper's 10 x 4 = 40); UCDDCP instances just use a flat index.
  (void)problem;
  const auto h_count =
      static_cast<std::uint32_t>(std::max<std::size_t>(sweep.h.size(), 1));
  return sweep.instances * h_count;
}

Instance MakeSweepInstance(Problem problem, const benchutil::Sweep& sweep,
                           std::uint32_t n, std::uint32_t index) {
  const orlib::BiskupFeldmannGenerator gen(sweep.seed);
  if (problem == Problem::kCdd) {
    const auto h_count = static_cast<std::uint32_t>(sweep.h.size());
    const std::uint32_t k = index / h_count;
    const double h = sweep.h[index % h_count];
    return gen.Cdd(n, k, h);
  }
  return gen.Ucddcp(n, index);
}

std::vector<QualityRow> RunQualitySweep(Problem problem,
                                        const benchutil::Sweep& sweep,
                                        std::ostream& log) {
  std::vector<QualityRow> rows;
  for (const std::uint32_t n : sweep.sizes) {
    QualityRow row;
    row.jobs = n;
    const std::uint32_t count = InstancesPerSize(problem, sweep);
    for (std::uint32_t index = 0; index < count; ++index) {
      const Instance instance =
          MakeSweepInstance(problem, sweep, n, index);
      const std::uint64_t salt =
          static_cast<std::uint64_t>(n) * 1000 + index;
      const Cost reference =
          benchutil::ComputeReferenceCost(instance, sweep, salt);

      const auto record = [&](Algo algo, const par::GpuRunResult& result) {
        QualityCell& cell = row.cell[static_cast<int>(algo)];
        const double dev =
            reference == 0
                ? (result.best_cost == 0 ? 0.0 : 100.0)
                : static_cast<double>(result.best_cost - reference) /
                      static_cast<double>(reference) * 100.0;
        cell.deviation.Add(dev);
        cell.device_seconds.Add(result.device_seconds);
        cell.wall_seconds.Add(result.wall_seconds);
        if (result.best_cost < reference) ++row.improved_best_known;
      };

      {
        sim::Device gpu;
        record(Algo::kSaLow,
               par::RunParallelSa(
                   gpu, instance,
                   SaParamsFor(sweep, sweep.gens_low, sweep.seed + salt)));
      }
      {
        sim::Device gpu;
        record(Algo::kSaHigh,
               par::RunParallelSa(
                   gpu, instance,
                   SaParamsFor(sweep, sweep.gens_high, sweep.seed + salt)));
      }
      {
        sim::Device gpu;
        record(Algo::kDpsoLow,
               par::RunParallelDpso(gpu, instance,
                                    DpsoParamsFor(sweep, sweep.gens_low,
                                                  sweep.seed + salt)));
      }
      {
        sim::Device gpu;
        record(Algo::kDpsoHigh,
               par::RunParallelDpso(gpu, instance,
                                    DpsoParamsFor(sweep, sweep.gens_high,
                                                  sweep.seed + salt)));
      }
      ++row.instances;
    }
    log << "  n=" << n << ": " << row.instances
        << " instances done (mean %D SA_high="
        << row.cell[1].deviation.mean() << ")\n";
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// Modeled device seconds of a full run, extrapolated from two short real
/// runs of the pipeline (device time is affine in the generation count).
struct GpuCalibration {
  double setup = 0.0;
  double per_generation = 0.0;
  double At(std::uint64_t gens) const {
    return setup + per_generation * static_cast<double>(gens);
  }
};

GpuCalibration CalibrateGpu(const Instance& instance,
                            const benchutil::Sweep& sweep, bool dpso) {
  const auto device_time = [&](std::uint64_t gens) {
    sim::Device gpu;
    if (dpso) {
      return par::RunParallelDpso(gpu, instance,
                                  DpsoParamsFor(sweep, gens, sweep.seed))
          .device_seconds;
    }
    par::ParallelSaParams p = SaParamsFor(sweep, gens, sweep.seed);
    p.temp_samples = 200;  // calibration: keep host setup cheap
    return par::RunParallelSa(gpu, instance, p).device_seconds;
  };
  constexpr std::uint64_t kShort = 4;
  constexpr std::uint64_t kLong = 12;
  const double t_short = device_time(kShort);
  const double t_long = device_time(kLong);
  GpuCalibration cal;
  cal.per_generation =
      (t_long - t_short) / static_cast<double>(kLong - kShort);
  cal.setup = t_short - cal.per_generation * kShort;
  return cal;
}

}  // namespace

std::vector<SpeedupRowOut> RunSpeedupSweep(Problem problem,
                                           const benchutil::Sweep& sweep,
                                           std::ostream& log) {
  // The authors' CPU baselines are fixed published serial runs whose effort
  // grows with the instance (iterations roughly proportional to n, the
  // usual serial design), i.e. time(n) ~ A * n * per_eval(n).  A single
  // anchor fixes A:
  //  * CDD: the published [7] runtime of 379.36 s at n = 1000;
  //  * UCDDCP: the published Table V speed-up of 47.383 at n = 1000 times
  //    our modeled GPU SA_low time (no absolute [8] runtime is published).
  // The [18] baseline is taken as the published Table III ratio at
  // n = 1000 (3214.8 / 111.2 = 28.9x slower than [7]).
  // Full derivation: EXPERIMENTS.md "Calibration".
  constexpr double kPaperRatio18To7 = 3214.8 / 111.2;

  const Instance anchor_instance =
      MakeSweepInstance(problem, sweep, 1000, 0);
  const double anchor_per_eval = benchutil::MeasureSecondsPerEval(
      meta::Objective::ForInstance(anchor_instance), /*calib_evals=*/2000,
      sweep.seed);
  double cpu_anchor_1000 = 379.36;  // [7]'s published runtime (CDD)
  if (problem == Problem::kUcddcp) {
    const GpuCalibration cal =
        CalibrateGpu(anchor_instance, sweep, /*dpso=*/false);
    cpu_anchor_1000 = 47.383 * cal.At(sweep.gens_low);
  }
  const double effort_constant = cpu_anchor_1000 / (1000.0 *
                                                    anchor_per_eval);
  log << "  baseline effort law: time(n) = " << effort_constant
      << " * n * per_eval(n)  (anchored at n=1000: " << cpu_anchor_1000
      << " s)\n";

  std::vector<SpeedupRowOut> rows;
  for (const std::uint32_t n : sweep.sizes) {
    SpeedupRowOut row;
    row.jobs = n;
    // One representative instance per size (index 0), as runtimes depend
    // on n, not on the penalty draw.
    const Instance instance = MakeSweepInstance(problem, sweep, n, 0);
    const meta::Objective objective =
        meta::Objective::ForInstance(instance);

    // --- CPU side: measured seconds per evaluation, effort law ----------
    const double sec_per_eval = benchutil::MeasureSecondsPerEval(
        objective,
        /*calib_evals=*/std::max<std::uint64_t>(200000 / n, 2000),
        sweep.seed + n);
    row.cpu7_seconds = effort_constant * static_cast<double>(n) *
                       sec_per_eval;
    row.cpu18_seconds = row.cpu7_seconds * kPaperRatio18To7;

    // --- GPU side: short real runs, per-generation device time ----------
    for (const bool dpso : {false, true}) {
      const GpuCalibration cal = CalibrateGpu(instance, sweep, dpso);
      const int low_idx = dpso ? 2 : 0;
      row.gpu_seconds[low_idx] = cal.At(sweep.gens_low);
      row.gpu_seconds[low_idx + 1] = cal.At(sweep.gens_high);
    }

    log << "  n=" << n << ": cpu " << sec_per_eval * 1e6
        << " us/eval, gpu SA_low " << row.gpu_seconds[0] << " s\n";
    rows.push_back(row);
  }
  return rows;
}

}  // namespace cdd::benchrun
