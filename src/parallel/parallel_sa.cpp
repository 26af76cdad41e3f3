#include "parallel/parallel_sa.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

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
constexpr std::uint32_t kMaxPert = 32;

using Clock = std::chrono::steady_clock;

/// Host snapshot of the device-resident SA state at a generation boundary.
/// cand/cand_cost are per-generation scratch (fully rewritten before being
/// read) and need no saving.  Per-generation Philox streams are derived
/// statelessly from (seed, generation, phase, thread), so no RNG state is
/// captured either.
struct ParallelSaCheckpoint final : detail::DeviceCheckpoint {
  std::vector<JobId> curr;
  std::vector<JobId> best_seq;
  std::vector<Cost> curr_cost;
  std::vector<Cost> best_cost;
  std::int64_t packed_best = 0;
  std::uint64_t next_generation = 1;
  double temperature = 0.0;
};

/// Checks the perturbation size before any device allocation and resolves
/// the initial temperature on the host (Salamon rule, Section VI).
double ValidateAndResolveT0(const Instance& instance,
                            const ParallelSaParams& params) {
  if (params.pert > kMaxPert) {
    throw std::invalid_argument(
        "RunParallelSa: pert exceeds the kernel's scratch capacity (32)");
  }
  const meta::SequenceObjective objective =
      meta::SequenceObjective::ForInstance(instance);
  return params.initial_temperature > 0.0
             ? params.initial_temperature
             : meta::InitialTemperature(objective, params.temp_samples,
                                        params.seed);
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

  SaDeviceState(sim::Device& device, const Instance& instance,
                std::uint32_t ensemble)
      : problem(device, instance),
        curr(device, static_cast<std::size_t>(ensemble) * problem.n()),
        cand(device, static_cast<std::size_t>(ensemble) * problem.n()),
        best_seq(device, static_cast<std::size_t>(ensemble) * problem.n()),
        curr_cost(device, ensemble),
        cand_cost(device, ensemble),
        best_cost(device, ensemble),
        packed_best(device, 1) {}
};

class ParallelSaEngine final : public detail::DeviceEngine {
 public:
  ParallelSaEngine(sim::Device& device, const Instance& instance,
                   const ParallelSaParams& params)
      : DeviceEngine(device, params.config, "RunParallelSa"),
        params_(params),
        t0_(ValidateAndResolveT0(instance, params)),
        temperature_(t0_) {
    const auto t_start = Clock::now();
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
      const std::vector<JobId> init = detail::MakeInitialSequences(
          ensemble, n, params_.seed, params_.vshape_init ? &vseed : nullptr);
      state_->curr.CopyFromHost(init);
      state_->best_seq.CopyFromHost(init);
    }

    // Pool views over the device buffers: same row geometry the host
    // engines evaluate through (stride == n — rows are dense on device).
    // kDevice-tagged, so the fitness launches consume them without staging.
    const CandidatePoolView curr_pool = detail::DeviceView(
        state_->curr.data(), state_->curr_cost.data(), n, ensemble);

    // Initial fitness of the uploaded ensemble.
    detail::LaunchFitness(device_, state_->problem, params_.config,
                          curr_pool, "sa_fitness", params_.penalty_memory);
    result_.evaluations += ensemble;
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
    if (params_.generations == 0) status_ = meta::StepStatus::kDone;
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  meta::StepStatus Step(std::uint64_t units) override {
    if (status_ != meta::StepStatus::kRunning || units == 0) return status_;
    finish_cache_.reset();
    CDD_TRACE_SPAN("par.sa");
    const auto t_start = Clock::now();
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    const std::uint64_t seed = params_.seed;
    const std::uint32_t pert = params_.pert;
    JobId* d_curr = state_->curr.data();
    JobId* d_cand = state_->cand.data();
    JobId* d_best = state_->best_seq.data();
    Cost* d_curr_cost = state_->curr_cost.data();
    Cost* d_cand_cost = state_->cand_cost.data();
    Cost* d_best_cost = state_->best_cost.data();
    const CandidatePoolView cand_pool =
        detail::DeviceView(d_cand, d_cand_cost, n, ensemble);

    const std::uint64_t last =
        g_ - 1 +
        std::min<std::uint64_t>(units, params_.generations - (g_ - 1));
    for (; g_ <= last; ++g_) {
      const std::uint64_t g = g_;
      if (params_.stop.stop_requested()) {
        result_.stopped = true;
        status_ = meta::StepStatus::kStopped;
        break;
      }
      // --- kernel 1: perturbation (Section VI-B) -------------------------
      // A cheap swap most generations; the Pert-sized Fisher-Yates shuffle
      // "after every 10 SA iterations" (configurable; see NeighborhoodMode).
      const bool shuffle_now =
          params_.neighborhood ==
              meta::NeighborhoodMode::kShuffleEveryIteration ||
          (g - 1) % std::max(params_.shuffle_period, 1u) == 0;
      {
        sim::LaunchOptions opts;
        opts.name = "sa_perturbation";
        device_.Launch(
            params_.config.grid(), params_.config.block(), opts,
            [=](sim::ThreadCtx& t) {
              const std::uint64_t tid = t.global_thread();
              if (tid >= ensemble) return;
              const JobId* src = d_curr + tid * n;
              JobId* dst = d_cand + tid * n;
              for (std::int32_t i = 0; i < n; ++i) dst[i] = src[i];
              rng::Philox4x32 rng =
                  raw::MakeStream(seed, g, raw::RngPhase::kPerturb,
                                  static_cast<std::uint32_t>(tid));
              if (shuffle_now) {
                std::uint32_t positions[kMaxPert];
                JobId values[kMaxPert];
                raw::PerturbRaw(dst, n, pert, rng, positions, values);
                t.charge(static_cast<std::uint64_t>(n) + 8 * pert);
              } else {
                raw::SwapRaw(dst, n, rng);
                t.charge(static_cast<std::uint64_t>(n) + 2);
              }
            });
      }

      // --- kernel 2: fitness (Section VI-A) ------------------------------
      detail::LaunchFitness(device_, state_->problem, params_.config,
                            cand_pool, "sa_fitness",
                            params_.penalty_memory);
      result_.evaluations += ensemble;

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
              rng::Philox4x32 rng =
                  raw::MakeStream(seed, g, raw::RngPhase::kAccept,
                                  static_cast<std::uint32_t>(tid));
              const Cost e = d_curr_cost[tid];
              const Cost e_new = d_cand_cost[tid];
              const double accept =
                  std::exp(static_cast<double>(e - e_new) / temp);
              if (accept >= static_cast<double>(rng.NextUniform())) {
                JobId* cur = d_curr + tid * n;
                const JobId* cnd = d_cand + tid * n;
                for (std::int32_t i = 0; i < n; ++i) cur[i] = cnd[i];
                d_curr_cost[tid] = e_new;
                if (e_new < d_best_cost[tid]) {
                  d_best_cost[tid] = e_new;
                  JobId* bst = d_best + tid * n;
                  for (std::int32_t i = 0; i < n; ++i) bst[i] = cnd[i];
                  t.charge(static_cast<std::uint64_t>(n));
                }
                t.charge(static_cast<std::uint64_t>(n));
              }
              t.charge(4);
            });
      }

      // --- kernel 4: reduction (Section VI-D) ----------------------------
      detail::LaunchReduction(device_, params_.config, d_best_cost,
                              state_->packed_best.data(), "sa_reduction",
                              params_.reduction);

      // All four launches are queued; the host fences once per generation.
      device_.Synchronize();

      temperature_ *= params_.mu;

      if (params_.trajectory_stride > 0 &&
          (g - 1) % params_.trajectory_stride == 0) {
        std::int64_t packed = 0;
        state_->packed_best.CopyToHost(std::span<std::int64_t>(&packed, 1));
        result_.trajectory.push_back(raw::UnpackCost(packed));
        CDD_TRACE_COUNTER("psa.best_cost", result_.trajectory.back());
      }
    }
    if (status_ == meta::StepStatus::kRunning &&
        g_ > params_.generations) {
      status_ = meta::StepStatus::kDone;
    }
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
    return status_;
  }

  std::uint64_t Remaining() const override {
    return status_ == meta::StepStatus::kRunning
               ? params_.generations - (g_ - 1)
               : 0;
  }

  Cost BestCost() const override {
    // packed_best already holds the ensemble minimum (kernel 4 keeps it
    // current every generation); reading it is host bookkeeping.
    return raw::UnpackCost(*state_->packed_best.data());
  }

  std::unique_ptr<meta::EngineCheckpoint> Checkpoint() const override {
    auto cp = std::make_unique<ParallelSaCheckpoint>();
    detail::CopyOut(state_->curr, cp->curr);
    detail::CopyOut(state_->best_seq, cp->best_seq);
    detail::CopyOut(state_->curr_cost, cp->curr_cost);
    detail::CopyOut(state_->best_cost, cp->best_cost);
    cp->packed_best = *state_->packed_best.data();
    cp->next_generation = g_;
    cp->temperature = temperature_;
    SaveBookkeeping(*cp);
    return cp;
  }

  void Restore(const meta::EngineCheckpoint& checkpoint) override {
    const auto* cp = dynamic_cast<const ParallelSaCheckpoint*>(&checkpoint);
    if (cp == nullptr || cp->curr.size() != state_->curr.size()) {
      throw std::invalid_argument("ParallelSaEngine: foreign checkpoint");
    }
    detail::CopyIn(cp->curr, state_->curr);
    detail::CopyIn(cp->best_seq, state_->best_seq);
    detail::CopyIn(cp->curr_cost, state_->curr_cost);
    detail::CopyIn(cp->best_cost, state_->best_cost);
    *state_->packed_best.data() = cp->packed_best;
    g_ = cp->next_generation;
    temperature_ = cp->temperature;
    RestoreBookkeeping(*cp);
    finish_cache_.reset();
  }

  /// Downloads the winner — Figure 9's single D2H.  Memoized until the
  /// next Step/Restore so repeated Finish calls stay idempotent (a second
  /// call must not charge a second modeled transfer).
  GpuRunResult FinishGpu() override {
    if (finish_cache_) return *finish_cache_;
    const auto t_start = Clock::now();
    GpuRunResult result = result_;
    std::int64_t packed = 0;
    state_->packed_best.CopyToHost(std::span<std::int64_t>(&packed, 1));
    result.best_cost = raw::UnpackCost(packed);
    result.best = detail::DownloadRow(state_->best_seq,
                                      state_->problem.n(),
                                      raw::UnpackThread(packed));
    result.device_seconds = ConsumedDevice();
    result.wall_seconds =
        elapsed_ +
        std::chrono::duration<double>(Clock::now() - t_start).count();
    finish_cache_ = result;
    return result;
  }

 private:
  ParallelSaParams params_;
  double t0_;
  double temperature_;
  std::unique_ptr<SaDeviceState> state_;
  std::uint64_t g_ = 1;  ///< next generation to run (1-based, Figure 7)
  std::optional<GpuRunResult> finish_cache_;
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
