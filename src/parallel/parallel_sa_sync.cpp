#include "parallel/parallel_sa_sync.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "cudasim/atomics.hpp"
#include "cudasim/memory.hpp"
#include "meta/objective.hpp"
#include "meta/temperature.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par {

namespace {

double ValidateAndResolveT0(const Instance& instance,
                            const ParallelSaSyncParams& params) {
  if (params.pert > raw::kMaxPert) {
    throw std::invalid_argument("RunParallelSaSync: pert exceeds 32");
  }
  const meta::SequenceObjective objective =
      meta::SequenceObjective::ForInstance(instance);
  return params.initial_temperature > 0.0
             ? params.initial_temperature
             : meta::InitialTemperature(objective, params.temp_samples,
                                        params.budget.seed);
}

struct SaSyncDeviceState {
  DeviceProblem problem;
  sim::DeviceBuffer<JobId> curr;
  sim::DeviceBuffer<JobId> cand;
  sim::DeviceBuffer<JobId> broadcast;
  sim::DeviceBuffer<Cost> curr_cost;
  sim::DeviceBuffer<Cost> cand_cost;
  sim::DeviceBuffer<std::int64_t> packed_level;
  sim::DeviceBuffer<std::int64_t> packed_best;
  sim::DeviceBuffer<std::int64_t> distance_sum;
  /// Per-thread scratch of the chain kernels (raw::ChainRows::touched).
  sim::DeviceBuffer<std::uint32_t> touched;

  SaSyncDeviceState(sim::Device& device, const Instance& instance,
                    std::uint32_t ensemble)
      : problem(device, instance),
        curr(device, static_cast<std::size_t>(ensemble) * problem.n()),
        cand(device, static_cast<std::size_t>(ensemble) * problem.n()),
        broadcast(device, static_cast<std::size_t>(problem.n())),
        curr_cost(device, ensemble),
        cand_cost(device, ensemble),
        packed_level(device, 1),
        packed_best(device, 1),
        distance_sum(device, 1),
        touched(device, static_cast<std::size_t>(ensemble) *
                            raw::kTouchedStride) {}
};

class ParallelSaSyncEngine final
    : public detail::DeviceEngine<ParallelSaSyncEngine> {
 public:
  ParallelSaSyncEngine(sim::Device& device, const Instance& instance,
                       const ParallelSaSyncParams& params)
      : DeviceEngine(device, params.config, params.budget,
                     "RunParallelSaSync"),
        params_(params),
        t0_(ValidateAndResolveT0(instance, params)) {
    const meta::ElapsedTimer timer(loop_.elapsed);
    const std::uint32_t ensemble = params_.config.ensemble();

    state_ = std::make_unique<SaSyncDeviceState>(device_, instance,
                                                 ensemble);
    detail::RequirePackableCosts(state_->problem, "RunParallelSaSync");
    const std::int32_t n = state_->problem.n();
    state_->packed_best.Fill(
        raw::PackCostThread(state_->problem.cost_upper_bound(), 0));

    {
      const std::span<JobId> init(state_->curr.data(), state_->curr.size());
      detail::WriteInitialSequences(init, n, budget_.seed);
      device_.RecordH2D(state_->curr.bytes());  // the rows' upload
      // cand == curr at every level boundary (raw::ChainRows); the host
      // copy charges nothing (device memory is simulated).
      std::ranges::copy(init, state_->cand.data());
    }

    const CandidatePoolView curr_pool = detail::DeviceView(
        state_->curr.data(), state_->curr_cost.data(), n, ensemble);
    detail::LaunchFitness(device_, state_->problem, params_.config,
                          curr_pool, "sync_fitness");
    loop_.result.evaluations += ensemble;
  }

  /// One temperature level per iteration.
  auto BeginDeviceSlice() {
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    const std::uint64_t seed = budget_.seed;
    const std::uint32_t pert = params_.pert;
    JobId* d_curr = state_->curr.data();
    JobId* d_cand = state_->cand.data();
    JobId* d_bcast = state_->broadcast.data();
    Cost* d_curr_cost = state_->curr_cost.data();
    Cost* d_cand_cost = state_->cand_cost.data();
    std::int64_t* d_packed_level = state_->packed_level.data();
    std::int64_t* d_packed_best = state_->packed_best.data();
    std::int64_t* d_distance = state_->distance_sum.data();
    const Cost bound = state_->problem.cost_upper_bound();
    const raw::ChainRows rows{d_curr, d_cand, d_curr_cost, d_cand_cost,
                              state_->touched.data(), n};
    const CandidatePoolView cand_pool =
        detail::DeviceView(d_cand, d_cand_cost, n, ensemble);

    return [=, this](std::uint64_t level) {
      const double temp = std::max(
          t0_ * std::pow(params_.mu, static_cast<double>(level)), 1e-300);

      // --- constant-temperature Markov chain of length M ------------------
      for (std::uint32_t m = 0; m < params_.chain_length; ++m) {
        const std::uint64_t g = level * params_.chain_length + m + 1;
        const bool shuffle_now =
            params_.neighborhood ==
                meta::NeighborhoodMode::kShuffleEveryIteration ||
            (g - 1) % std::max(params_.shuffle_period, 1u) == 0;
        {
          sim::LaunchOptions opts;
          opts.name = "sync_perturbation";
          device_.Launch(
              params_.config.grid(), params_.config.block(), opts,
              [=](sim::ThreadCtx& t) {
                const std::uint64_t tid = t.global_thread();
                if (tid >= ensemble) return;
                raw::PerturbCandidate(t, rows, tid, seed, g, pert,
                                      shuffle_now);
              });
        }
        detail::LaunchFitness(device_, state_->problem, params_.config,
                              cand_pool, "sync_fitness");
        loop_.result.evaluations += ensemble;
        {
          sim::LaunchOptions opts;
          opts.name = "sync_acceptance";
          device_.Launch(
              params_.config.grid(), params_.config.block(), opts,
              [=](sim::ThreadCtx& t) {
                const std::uint64_t tid = t.global_thread();
                if (tid >= ensemble) return;
                raw::CommitMove(
                    t, rows, tid,
                    raw::MetropolisAccept(t, rows, tid, seed, g, temp));
              });
        }
        device_.Synchronize();
      }

      // --- reduce the level's best current state --------------------------
      state_->packed_level.Fill(raw::PackCostThread(bound, 0));
      detail::LaunchReduction(device_, params_.config, d_curr_cost,
                              d_packed_level, "sync_reduction");
      {
        // The winning thread publishes its state for the broadcast.
        sim::LaunchOptions opts;
        opts.name = "sync_select";
        device_.Launch(params_.config.grid(), params_.config.block(), opts,
                       [=](sim::ThreadCtx& t) {
                         const std::uint64_t tid = t.global_thread();
                         if (tid >= ensemble) return;
                         const std::int64_t packed = *d_packed_level;
                         if (raw::UnpackThread(packed) != tid) return;
                         raw::CopyRow(d_bcast, d_curr + tid * n, n);
                         sim::AtomicMin(d_packed_best, packed);
                         t.charge(static_cast<std::uint64_t>(n));
                       });
      }

      // --- optional diversity metric (before states are overwritten) ------
      if (params_.record_diversity) {
        state_->distance_sum.Fill(0);
        sim::LaunchOptions opts;
        opts.name = "sync_diversity";
        device_.Launch(params_.config.grid(), params_.config.block(), opts,
                       [=](sim::ThreadCtx& t) {
                         const std::uint64_t tid = t.global_thread();
                         if (tid >= ensemble) return;
                         const JobId* mine = d_curr + tid * n;
                         std::int64_t dist = 0;
                         for (std::int32_t i = 0; i < n; ++i) {
                           dist += (mine[i] != d_bcast[i]) ? 1 : 0;
                         }
                         sim::AtomicAdd(d_distance, dist);
                         t.charge(static_cast<std::uint64_t>(n));
                       });
        std::int64_t total = 0;
        state_->distance_sum.CopyToHost(std::span<std::int64_t>(&total, 1));
        loop_.result.diversity.push_back(static_cast<double>(total) /
                                         static_cast<double>(ensemble));
      }

      // --- broadcast s_min to every thread (Fig 8's state exchange) -------
      // The modeled kernel writes curr (charged n); the simulator also
      // writes cand, which keeps cand == curr (raw::ChainRows).
      {
        sim::LaunchOptions opts;
        opts.name = "sync_broadcast";
        device_.Launch(params_.config.grid(), params_.config.block(), opts,
                       [=](sim::ThreadCtx& t) {
                         const std::uint64_t tid = t.global_thread();
                         if (tid >= ensemble) return;
                         const Cost best =
                             raw::UnpackCost(*d_packed_level);
                         raw::CopyRow(d_curr + tid * n, d_bcast, n);
                         raw::CopyRow(d_cand + tid * n, d_bcast, n);
                         d_curr_cost[tid] = best;
                         t.charge(static_cast<std::uint64_t>(n));
                       });
      }
      device_.Synchronize();

      // Track the best-ever broadcast state on the host: later levels can
      // regress (metropolis accepts uphill moves), so the final broadcast
      // is not necessarily the best one seen.
      std::int64_t level_packed = 0;
      state_->packed_level.CopyToHost(
          std::span<std::int64_t>(&level_packed, 1));
      const Cost level_cost = raw::UnpackCost(level_packed);
      if (level_cost < loop_.result.best_cost) {
        loop_.result.best_cost = level_cost;
        Sequence state(static_cast<std::size_t>(n));
        state_->broadcast.CopyToHost(std::span<JobId>(state));
        loop_.result.best = std::move(state);
      }
    };
  }

  /// The best broadcast state so far (tracked on the host: no transfer).
  Cost TrajectorySample() const { return loop_.result.best_cost; }

  Cost BestCost() const override {
    if (!loop_.result.best.empty()) return loop_.result.best_cost;
    // No level has run yet: the ensemble's best initial state (a host
    // read of simulated device memory, which charges nothing).
    const Cost* costs = state_->curr_cost.data();
    return *std::min_element(costs, costs + params_.config.ensemble());
  }

  /// The best broadcast state is tracked on the host, so a run with at
  /// least one level downloads nothing.  A run stopped before its first
  /// level reports the best initial state, downloaded like a real device
  /// would (the costs, then the winning row).
  void ReadBest(GpuRunResult& result) {
    if (!result.best.empty()) return;
    std::vector<Cost> costs(params_.config.ensemble());
    state_->curr_cost.CopyToHost(std::span<Cost>(costs));
    const auto winner = static_cast<std::uint32_t>(
        std::min_element(costs.begin(), costs.end()) - costs.begin());
    result.best_cost = costs[winner];
    result.best =
        detail::DownloadRow(state_->curr, state_->problem.n(), winner);
  }

 private:
  ParallelSaSyncParams params_;
  double t0_;
  std::unique_ptr<SaSyncDeviceState> state_;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelSaSyncEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaSyncParams& params) {
  return std::make_unique<ParallelSaSyncEngine>(device, instance, params);
}

GpuRunResult RunParallelSaSync(sim::Device& device, const Instance& instance,
                               const ParallelSaSyncParams& params) {
  ParallelSaSyncEngine engine(device, instance, params);
  engine.Step(meta::kStepAll);
  return engine.FinishGpu();
}

}  // namespace cdd::par
