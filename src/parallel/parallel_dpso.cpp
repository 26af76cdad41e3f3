#include "parallel/parallel_dpso.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cudasim/atomics.hpp"
#include "core/vshape.hpp"
#include "cudasim/memory.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"
#include "trace/tracer.hpp"

namespace cdd::par {
namespace {

using Clock = std::chrono::steady_clock;

/// Host snapshot of the swarm at a generation boundary.  child/used are
/// per-thread crossover scratch (rewritten before read) and are skipped;
/// per-generation Philox streams are stateless in (seed, generation).
struct ParallelDpsoCheckpoint final : detail::DeviceCheckpoint {
  std::vector<JobId> pos;
  std::vector<JobId> pbest;
  std::vector<JobId> gbest;
  std::vector<Cost> pos_cost;
  std::vector<Cost> pbest_cost;
  std::int64_t packed_best = 0;
  std::uint64_t next_generation = 1;
};

/// Swarm state: positions, particle bests, swarm best, plus per-thread
/// "local memory" scratch for the crossovers.
struct DpsoDeviceState {
  DeviceProblem problem;
  sim::DeviceBuffer<JobId> pos;
  sim::DeviceBuffer<JobId> pbest;
  sim::DeviceBuffer<JobId> child;
  sim::DeviceBuffer<std::uint8_t> used;
  sim::DeviceBuffer<JobId> gbest;
  sim::DeviceBuffer<Cost> pos_cost;
  sim::DeviceBuffer<Cost> pbest_cost;
  sim::DeviceBuffer<std::int64_t> packed_best;

  DpsoDeviceState(sim::Device& device, const Instance& instance,
                  std::uint32_t ensemble)
      : problem(device, instance),
        pos(device, static_cast<std::size_t>(ensemble) * problem.n()),
        pbest(device, static_cast<std::size_t>(ensemble) * problem.n()),
        child(device, static_cast<std::size_t>(ensemble) * problem.n()),
        used(device, static_cast<std::size_t>(ensemble) * problem.n()),
        gbest(device, static_cast<std::size_t>(problem.n())),
        pos_cost(device, ensemble),
        pbest_cost(device, ensemble),
        packed_best(device, 1) {}
};

class ParallelDpsoEngine final : public detail::DeviceEngine {
 public:
  ParallelDpsoEngine(sim::Device& device, const Instance& instance,
                     const ParallelDpsoParams& params)
      : DeviceEngine(device, params.config, "RunParallelDpso"),
        params_(params) {
    const auto t_start = Clock::now();
    const std::uint32_t ensemble = params_.config.ensemble();

    state_ = std::make_unique<DpsoDeviceState>(device_, instance, ensemble);
    detail::RequirePackableCosts(state_->problem, "RunParallelDpso");
    const std::int32_t n = state_->problem.n();
    state_->packed_best.Fill(
        raw::PackCostThread(state_->problem.cost_upper_bound(), 0));

    {
      Sequence vseed;
      if (params_.vshape_init) vseed = VShapeSeed(instance);
      const std::vector<JobId> init = detail::MakeInitialSequences(
          ensemble, n, params_.seed, params_.vshape_init ? &vseed : nullptr);
      state_->pos.CopyFromHost(init);
      state_->pbest.CopyFromHost(init);
    }

    Cost* d_pos_cost = state_->pos_cost.data();
    Cost* d_pbest_cost = state_->pbest_cost.data();

    // Positions as a device-side candidate pool (dense rows, stride == n).
    const CandidatePoolView pos_pool =
        detail::DeviceView(state_->pos.data(), d_pos_cost, n, ensemble);

    // Initial fitness, particle bests and swarm best.
    detail::LaunchFitness(device_, state_->problem, params_.config,
                          pos_pool, "dpso_fitness");
    result_.evaluations += ensemble;
    {
      sim::LaunchOptions opts;
      opts.name = "dpso_pbest_update";
      device_.Launch(params_.config.grid(), params_.config.block(), opts,
                     [=](sim::ThreadCtx& t) {
                       const std::uint64_t tid = t.global_thread();
                       if (tid >= ensemble) return;
                       d_pbest_cost[tid] = d_pos_cost[tid];
                       t.charge(1);
                     });
    }
    detail::LaunchReduction(device_, params_.config, d_pbest_cost,
                            state_->packed_best.data(), "dpso_reduction");
    PublishGbest();
    device_.Synchronize();

    if (params_.generations == 0) status_ = meta::StepStatus::kDone;
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  meta::StepStatus Step(std::uint64_t units) override {
    if (status_ != meta::StepStatus::kRunning || units == 0) return status_;
    finish_cache_.reset();
    CDD_TRACE_SPAN("par.dpso");
    const auto t_start = Clock::now();
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    const std::uint64_t seed = params_.seed;
    const double w = params_.w;
    const double c1 = params_.c1;
    const double c2 = params_.c2;
    JobId* d_pos = state_->pos.data();
    JobId* d_pbest = state_->pbest.data();
    JobId* d_child = state_->child.data();
    std::uint8_t* d_used = state_->used.data();
    JobId* d_gbest = state_->gbest.data();
    Cost* d_pos_cost = state_->pos_cost.data();
    Cost* d_pbest_cost = state_->pbest_cost.data();
    const CandidatePoolView pos_pool =
        detail::DeviceView(d_pos, d_pos_cost, n, ensemble);

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
      // --- position update: Eq. (3) --------------------------------------
      {
        sim::LaunchOptions opts;
        opts.name = "dpso_update";
        device_.Launch(
            params_.config.grid(), params_.config.block(), opts,
            [=](sim::ThreadCtx& t) {
              const std::uint64_t tid = t.global_thread();
              if (tid >= ensemble) return;
              JobId* mine = d_pos + tid * n;
              JobId* scratch = d_child + tid * n;
              std::uint8_t* marks = d_used + tid * n;
              rng::Philox4x32 rng =
                  raw::MakeStream(seed, g, raw::RngPhase::kDpsoUpdate,
                                  static_cast<std::uint32_t>(tid));
              // w (+) F1: swap velocity.
              if (rng.NextUniform() < w) {
                raw::SwapRaw(mine, n, rng);
                t.charge(2);
              }
              // c1 (+) F2: one-point crossover with the particle best.
              if (rng.NextUniform() < c1) {
                const std::uint32_t cut = cdd::UniformBelow(
                    rng, static_cast<std::uint32_t>(n) + 1);
                raw::OnePointCrossoverRaw(n, mine, d_pbest + tid * n, cut,
                                          scratch, marks);
                for (std::int32_t i = 0; i < n; ++i) mine[i] = scratch[i];
                t.charge(3 * static_cast<std::uint64_t>(n));
              }
              // c2 (+) F3: two-point crossover with the swarm best.
              if (rng.NextUniform() < c2) {
                std::uint32_t a = cdd::UniformBelow(
                    rng, static_cast<std::uint32_t>(n) + 1);
                std::uint32_t b = cdd::UniformBelow(
                    rng, static_cast<std::uint32_t>(n) + 1);
                if (a > b) {
                  const std::uint32_t tmp = a;
                  a = b;
                  b = tmp;
                }
                raw::TwoPointCrossoverRaw(n, mine, d_gbest, a, b, scratch,
                                          marks);
                for (std::int32_t i = 0; i < n; ++i) mine[i] = scratch[i];
                t.charge(3 * static_cast<std::uint64_t>(n));
              }
              t.charge(4);
            });
      }

      // --- fitness --------------------------------------------------------
      detail::LaunchFitness(device_, state_->problem, params_.config,
                            pos_pool, "dpso_fitness");
      result_.evaluations += ensemble;

      // --- particle bests -------------------------------------------------
      {
        sim::LaunchOptions opts;
        opts.name = "dpso_pbest_update";
        device_.Launch(params_.config.grid(), params_.config.block(), opts,
                      [=](sim::ThreadCtx& t) {
                        const std::uint64_t tid = t.global_thread();
                        if (tid >= ensemble) return;
                        if (d_pos_cost[tid] < d_pbest_cost[tid]) {
                          d_pbest_cost[tid] = d_pos_cost[tid];
                          const JobId* src = d_pos + tid * n;
                          JobId* dst = d_pbest + tid * n;
                          for (std::int32_t i = 0; i < n; ++i) {
                            dst[i] = src[i];
                          }
                          t.charge(static_cast<std::uint64_t>(n));
                        }
                        t.charge(2);
                      });
      }

      // --- swarm best (reduction + publish) -------------------------------
      detail::LaunchReduction(device_, params_.config, d_pbest_cost,
                              state_->packed_best.data(), "dpso_reduction");
      PublishGbest();
      device_.Synchronize();

      if (params_.trajectory_stride > 0 &&
          (g - 1) % params_.trajectory_stride == 0) {
        std::int64_t packed = 0;
        state_->packed_best.CopyToHost(std::span<std::int64_t>(&packed, 1));
        result_.trajectory.push_back(raw::UnpackCost(packed));
        CDD_TRACE_COUNTER("pdpso.best_cost", result_.trajectory.back());
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
    return raw::UnpackCost(*state_->packed_best.data());
  }

  std::unique_ptr<meta::EngineCheckpoint> Checkpoint() const override {
    auto cp = std::make_unique<ParallelDpsoCheckpoint>();
    detail::CopyOut(state_->pos, cp->pos);
    detail::CopyOut(state_->pbest, cp->pbest);
    detail::CopyOut(state_->gbest, cp->gbest);
    detail::CopyOut(state_->pos_cost, cp->pos_cost);
    detail::CopyOut(state_->pbest_cost, cp->pbest_cost);
    cp->packed_best = *state_->packed_best.data();
    cp->next_generation = g_;
    SaveBookkeeping(*cp);
    return cp;
  }

  void Restore(const meta::EngineCheckpoint& checkpoint) override {
    const auto* cp =
        dynamic_cast<const ParallelDpsoCheckpoint*>(&checkpoint);
    if (cp == nullptr || cp->pos.size() != state_->pos.size()) {
      throw std::invalid_argument("ParallelDpsoEngine: foreign checkpoint");
    }
    detail::CopyIn(cp->pos, state_->pos);
    detail::CopyIn(cp->pbest, state_->pbest);
    detail::CopyIn(cp->gbest, state_->gbest);
    detail::CopyIn(cp->pos_cost, state_->pos_cost);
    detail::CopyIn(cp->pbest_cost, state_->pbest_cost);
    *state_->packed_best.data() = cp->packed_best;
    g_ = cp->next_generation;
    RestoreBookkeeping(*cp);
    finish_cache_.reset();
  }

  /// Memoized until the next Step/Restore so repeated Finish calls stay
  /// idempotent (a second call must not charge a second modeled D2H).
  GpuRunResult FinishGpu() override {
    if (finish_cache_) return *finish_cache_;
    const auto t_start = Clock::now();
    GpuRunResult result = result_;
    std::int64_t packed = 0;
    state_->packed_best.CopyToHost(std::span<std::int64_t>(&packed, 1));
    result.best_cost = raw::UnpackCost(packed);
    result.best = detail::DownloadRow(state_->pbest, state_->problem.n(),
                                      raw::UnpackThread(packed));
    result.device_seconds = ConsumedDevice();
    result.wall_seconds =
        elapsed_ +
        std::chrono::duration<double>(Clock::now() - t_start).count();
    finish_cache_ = result;
    return result;
  }

 private:
  void PublishGbest() {
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    JobId* d_pbest = state_->pbest.data();
    JobId* d_gbest = state_->gbest.data();
    Cost* d_pbest_cost = state_->pbest_cost.data();
    std::int64_t* d_packed = state_->packed_best.data();
    sim::LaunchOptions opts;
    opts.name = "dpso_gbest_publish";
    device_.Launch(params_.config.grid(), params_.config.block(), opts,
                   [=](sim::ThreadCtx& t) {
                     const std::uint64_t tid = t.global_thread();
                     if (tid >= ensemble) return;
                     // Exactly one thread matches the packed key's id.
                     const std::int64_t packed = *d_packed;
                     if (raw::UnpackThread(packed) != tid) return;
                     if (d_pbest_cost[tid] != raw::UnpackCost(packed)) {
                       return;
                     }
                     const JobId* src = d_pbest + tid * n;
                     for (std::int32_t i = 0; i < n; ++i) {
                       d_gbest[i] = src[i];
                     }
                     t.charge(static_cast<std::uint64_t>(n));
                   });
  }

  ParallelDpsoParams params_;
  std::unique_ptr<DpsoDeviceState> state_;
  std::uint64_t g_ = 1;
  std::optional<GpuRunResult> finish_cache_;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelDpsoEngine(
    sim::Device& device, const Instance& instance,
    const ParallelDpsoParams& params) {
  return std::make_unique<ParallelDpsoEngine>(device, instance, params);
}

GpuRunResult RunParallelDpso(sim::Device& device, const Instance& instance,
                             const ParallelDpsoParams& params) {
  ParallelDpsoEngine engine(device, instance, params);
  engine.Step(meta::kStepAll);
  return engine.FinishGpu();
}

}  // namespace cdd::par
