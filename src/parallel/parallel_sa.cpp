#include "parallel/parallel_sa.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/vshape.hpp"
#include "cudasim/memory.hpp"
#include "meta/objective.hpp"
#include "meta/temperature.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"
#include "trace/tracer.hpp"

namespace cdd::par {

namespace {

/// Checks the perturbation size before any device allocation and resolves
/// the initial temperature on the host (Salamon rule, Section VI).
double ValidateAndResolveT0(const Instance& instance,
                            const ParallelSaParams& params) {
  if (params.pert > raw::kMaxPert) {
    throw std::invalid_argument(
        "RunParallelSa: pert exceeds the kernel's scratch capacity (32)");
  }
  const meta::SequenceObjective objective =
      meta::SequenceObjective::ForInstance(instance);
  return params.initial_temperature > 0.0
             ? params.initial_temperature
             : meta::InitialTemperature(objective, params.temp_samples,
                                        params.budget.seed);
}

/// Device-resident run state: the uploads of Figure 9 plus the ensemble
/// buffers.  Grouped so the engine can build it after validation with the
/// original upload-then-allocate order.
struct SaDeviceState {
  DeviceProblem problem;
  sim::DeviceBuffer<JobId> curr;
  sim::DeviceBuffer<JobId> cand;
  sim::DeviceBuffer<JobId> best_seq;
  sim::DeviceBuffer<Cost> curr_cost;
  sim::DeviceBuffer<Cost> cand_cost;
  sim::DeviceBuffer<Cost> best_cost;
  sim::DeviceBuffer<std::int64_t> packed_best;
  /// Per-thread scratch of the chain kernels (raw::ChainRows::touched).
  sim::DeviceBuffer<std::uint32_t> touched;
  /// Per-thread flag: the personal best is the current row, and its
  /// best_seq row is stale.  Set when an accepted move improves the best;
  /// the row is written out only when a later accepted move does not.
  sim::DeviceBuffer<std::uint8_t> best_is_curr;

  SaDeviceState(sim::Device& device, const Instance& instance,
                std::uint32_t ensemble)
      : problem(device, instance),
        curr(device, static_cast<std::size_t>(ensemble) * problem.n()),
        cand(device, static_cast<std::size_t>(ensemble) * problem.n()),
        best_seq(device, static_cast<std::size_t>(ensemble) * problem.n()),
        curr_cost(device, ensemble),
        cand_cost(device, ensemble),
        best_cost(device, ensemble),
        packed_best(device, 1),
        touched(device, static_cast<std::size_t>(ensemble) *
                            raw::kTouchedStride),
        best_is_curr(device, ensemble) {}
};

class ParallelSaEngine final
    : public detail::DeviceEngine<ParallelSaEngine> {
 public:
  static constexpr const char* kTraceSpan = "par.sa";

  ParallelSaEngine(sim::Device& device, const Instance& instance,
                   const ParallelSaParams& params)
      : DeviceEngine(device, params.config, params.budget, "RunParallelSa"),
        params_(params),
        temperature_(ValidateAndResolveT0(instance, params)) {
    const meta::ElapsedTimer timer(loop_.elapsed);
    const std::uint32_t ensemble = params_.config.ensemble();

    // --- device-side setup (the uploads of Figure 9) ----------------------
    state_ = std::make_unique<SaDeviceState>(device_, instance, ensemble);
    detail::RequirePackableCosts(state_->problem, "RunParallelSa");
    const std::int32_t n = state_->problem.n();
    state_->packed_best.Fill(
        raw::PackCostThread(state_->problem.cost_upper_bound(), 0));

    {
      Sequence vseed;
      if (params_.vshape_init) vseed = VShapeSeed(instance);
      const std::span<JobId> init(state_->curr.data(), state_->curr.size());
      detail::WriteInitialSequences(
          init, n, budget_.seed, params_.vshape_init ? &vseed : nullptr);
      device_.RecordH2D(state_->curr.bytes());  // the rows' upload
      state_->best_seq.CopyFromHost(init);
      // cand == curr at every generation boundary (raw::ChainRows); the
      // host copy charges nothing (device memory is simulated).
      std::ranges::copy(init, state_->cand.data());
    }

    // Pool views over the device buffers: same row geometry the host
    // engines evaluate through (stride == n — rows are dense on device).
    // kDevice-tagged, so the fitness launches consume them without staging.
    const CandidatePoolView curr_pool = detail::DeviceView(
        state_->curr.data(), state_->curr_cost.data(), n, ensemble);

    // Initial fitness of the uploaded ensemble.
    detail::LaunchFitness(device_, state_->problem, params_.config,
                          curr_pool, "sa_fitness", params_.penalty_memory);
    loop_.result.evaluations += ensemble;
    {
      // Seed the per-thread bests from the initial states.
      Cost* d_curr_cost = state_->curr_cost.data();
      Cost* d_best_cost = state_->best_cost.data();
      sim::LaunchOptions opts;
      opts.name = "sa_seed_best";
      device_.Launch(params_.config.grid(), params_.config.block(), opts,
                     [=](sim::ThreadCtx& t) {
                       const std::uint64_t tid = t.global_thread();
                       if (tid >= ensemble) return;
                       d_best_cost[tid] = d_curr_cost[tid];
                       t.charge(1);
                     });
    }
  }

  /// One generation (Figure 7) per iteration i: generation g = i + 1.
  auto BeginDeviceSlice() {
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    const std::uint64_t seed = budget_.seed;
    const std::uint32_t pert = params_.pert;
    JobId* d_curr = state_->curr.data();
    JobId* d_cand = state_->cand.data();
    JobId* d_best = state_->best_seq.data();
    Cost* d_curr_cost = state_->curr_cost.data();
    Cost* d_cand_cost = state_->cand_cost.data();
    Cost* d_best_cost = state_->best_cost.data();
    std::uint8_t* d_best_is_curr = state_->best_is_curr.data();
    const raw::ChainRows rows{d_curr, d_cand, d_curr_cost, d_cand_cost,
                              state_->touched.data(), n};
    const CandidatePoolView cand_pool =
        detail::DeviceView(d_cand, d_cand_cost, n, ensemble);

    return [=, this](std::uint64_t i) {
      const std::uint64_t g = i + 1;
      // --- kernel 1: perturbation (Section VI-B) -------------------------
      // A cheap swap most generations; the Pert-sized Fisher-Yates shuffle
      // "after every 10 SA iterations" (configurable; see NeighborhoodMode).
      const bool shuffle_now =
          params_.neighborhood ==
              meta::NeighborhoodMode::kShuffleEveryIteration ||
          i % std::max(params_.shuffle_period, 1u) == 0;
      {
        sim::LaunchOptions opts;
        opts.name = "sa_perturbation";
        device_.Launch(
            params_.config.grid(), params_.config.block(), opts,
            [=](sim::ThreadCtx& t) {
              const std::uint64_t tid = t.global_thread();
              if (tid >= ensemble) return;
              raw::PerturbCandidate(t, rows, tid, seed, g, pert,
                                    shuffle_now);
            });
      }

      // --- kernel 2: fitness (Section VI-A) ------------------------------
      detail::LaunchFitness(device_, state_->problem, params_.config,
                            cand_pool, "sa_fitness", params_.penalty_memory);
      loop_.result.evaluations += ensemble;

      // --- kernel 3: acceptance (Section VI-C) ---------------------------
      {
        const double temp = std::max(temperature_, 1e-300);
        sim::LaunchOptions opts;
        opts.name = "sa_acceptance";
        device_.Launch(
            params_.config.grid(), params_.config.block(), opts,
            [=](sim::ThreadCtx& t) {
              const std::uint64_t tid = t.global_thread();
              if (tid >= ensemble) return;
              const bool accepted =
                  raw::MetropolisAccept(t, rows, tid, seed, g, temp);
              // psa also tracks each thread's personal best.  The modeled
              // kernel copies an improving candidate into it (charged n).
              // Here the copy is deferred while the best is the current
              // row, and made from curr once an accepted move leaves it.
              if (accepted) {
                if (d_cand_cost[tid] < d_best_cost[tid]) {
                  d_best_cost[tid] = d_cand_cost[tid];
                  d_best_is_curr[tid] = 1;
                  t.charge(static_cast<std::uint64_t>(n));
                } else if (d_best_is_curr[tid] != 0) {
                  raw::CopyRow(d_best + tid * n, d_curr + tid * n, n);
                  d_best_is_curr[tid] = 0;
                }
              }
              raw::CommitMove(t, rows, tid, accepted);
            });
      }

      // --- kernel 4: reduction (Section VI-D) ----------------------------
      detail::LaunchReduction(device_, params_.config, d_best_cost,
                              state_->packed_best.data(), "sa_reduction",
                              params_.reduction);

      // All four launches are queued; the host fences once per generation.
      device_.Synchronize();

      temperature_ *= params_.mu;
    };
  }

  Cost TrajectorySample() {
    const Cost best =
        raw::UnpackCost(detail::DownloadPacked(state_->packed_best));
    CDD_TRACE_COUNTER("psa.best_cost", best);
    return best;
  }

  Cost BestCost() const override {
    // packed_best already holds the ensemble minimum (kernel 4 keeps it
    // current every generation); reading it is host bookkeeping.
    return raw::UnpackCost(*state_->packed_best.data());
  }

  /// Downloads the winner — Figure 9's single D2H.  A winner whose best
  /// is deferred (best_is_curr) is downloaded from its curr row: the same
  /// bytes the modeled device reads from best_seq.
  void ReadBest(GpuRunResult& result) {
    const std::int64_t packed = detail::DownloadPacked(state_->packed_best);
    const std::uint32_t winner = raw::UnpackThread(packed);
    result.best_cost = raw::UnpackCost(packed);
    result.best = detail::DownloadRow(
        state_->best_is_curr.data()[winner] != 0 ? state_->curr
                                                  : state_->best_seq,
        state_->problem.n(), winner);
  }

 private:
  ParallelSaParams params_;
  double temperature_;
  std::unique_ptr<SaDeviceState> state_;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelSaEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaParams& params) {
  return std::make_unique<ParallelSaEngine>(device, instance, params);
}

GpuRunResult RunParallelSa(sim::Device& device, const Instance& instance,
                           const ParallelSaParams& params) {
  ParallelSaEngine engine(device, instance, params);
  engine.Step(meta::kStepAll);
  return engine.FinishGpu();
}

}  // namespace cdd::par
