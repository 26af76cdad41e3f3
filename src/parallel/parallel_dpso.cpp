#include "parallel/parallel_dpso.hpp"

#include <algorithm>
#include <span>

#include "cudasim/atomics.hpp"
#include "core/vshape.hpp"
#include "cudasim/memory.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"
#include "trace/tracer.hpp"

namespace cdd::par {
namespace {

/// Swarm state: positions, particle bests, swarm best, plus the per-thread
/// job marks of the in-place crossovers ("local memory" scratch).
struct DpsoDeviceState {
  DeviceProblem problem;
  sim::DeviceBuffer<JobId> pos;
  sim::DeviceBuffer<JobId> pbest;
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
        used(device, static_cast<std::size_t>(ensemble) * problem.n()),
        gbest(device, static_cast<std::size_t>(problem.n())),
        pos_cost(device, ensemble),
        pbest_cost(device, ensemble),
        packed_best(device, 1) {}
};

class ParallelDpsoEngine final
    : public detail::DeviceEngine<ParallelDpsoEngine> {
 public:
  static constexpr const char* kTraceSpan = "par.dpso";

  ParallelDpsoEngine(sim::Device& device, const Instance& instance,
                     const ParallelDpsoParams& params)
      : DeviceEngine(device, params.config, params.budget, "RunParallelDpso"),
        params_(params) {
    const meta::ElapsedTimer timer(loop_.elapsed);
    const std::uint32_t ensemble = params_.config.ensemble();

    state_ = std::make_unique<DpsoDeviceState>(device_, instance, ensemble);
    detail::RequirePackableCosts(state_->problem, "RunParallelDpso");
    const std::int32_t n = state_->problem.n();
    state_->packed_best.Fill(
        raw::PackCostThread(state_->problem.cost_upper_bound(), 0));

    {
      Sequence vseed;
      if (params_.vshape_init) vseed = VShapeSeed(instance);
      const std::span<JobId> init(state_->pos.data(), state_->pos.size());
      detail::WriteInitialSequences(
          init, n, budget_.seed, params_.vshape_init ? &vseed : nullptr);
      device_.RecordH2D(state_->pos.bytes());  // the rows' upload
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
    loop_.result.evaluations += ensemble;
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
  }

  /// One generation per iteration i: generation g = i + 1.
  auto BeginDeviceSlice() {
    const std::uint32_t ensemble = params_.config.ensemble();
    const std::int32_t n = state_->problem.n();
    const std::uint64_t seed = budget_.seed;
    const double w = params_.w;
    const double c1 = params_.c1;
    const double c2 = params_.c2;
    JobId* d_pos = state_->pos.data();
    JobId* d_pbest = state_->pbest.data();
    std::uint8_t* d_used = state_->used.data();
    JobId* d_gbest = state_->gbest.data();
    Cost* d_pos_cost = state_->pos_cost.data();
    Cost* d_pbest_cost = state_->pbest_cost.data();
    const CandidatePoolView pos_pool =
        detail::DeviceView(d_pos, d_pos_cost, n, ensemble);

    return [=, this](std::uint64_t i) {
      const std::uint64_t g = i + 1;
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
              std::uint8_t* marks = d_used + tid * n;
              rng::Philox4x32 rng =
                  raw::MakeStream(seed, g, raw::RngPhase::kDpsoUpdate,
                                  static_cast<std::uint32_t>(tid));
              // w (+) F1: swap velocity.
              if (rng.NextUniform() < w) {
                std::uint32_t swapped[2];
                raw::SwapRaw(mine, n, rng, swapped);
                t.charge(2);
              }
              // c1 (+) F2: one-point crossover with the particle best.
              // Each crossover charges 3n (clear the marks, build the
              // child, copy it back): the paper's kernel, not the in-place
              // host version.
              if (rng.NextUniform() < c1) {
                const std::uint32_t cut = cdd::UniformBelow(
                    rng, static_cast<std::uint32_t>(n) + 1);
                raw::OnePointCrossoverRaw(n, mine, d_pbest + tid * n, cut,
                                          marks);
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
                raw::TwoPointCrossoverRaw(n, mine, d_gbest, a, b, marks);
                t.charge(3 * static_cast<std::uint64_t>(n));
              }
              t.charge(4);
            });
      }

      // --- fitness --------------------------------------------------------
      detail::LaunchFitness(device_, state_->problem, params_.config,
                            pos_pool, "dpso_fitness");
      loop_.result.evaluations += ensemble;

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
                           raw::CopyRow(d_pbest + tid * n, d_pos + tid * n,
                                        n);
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
    };
  }

  Cost TrajectorySample() {
    const Cost best =
        raw::UnpackCost(detail::DownloadPacked(state_->packed_best));
    CDD_TRACE_COUNTER("pdpso.best_cost", best);
    return best;
  }

  Cost BestCost() const override {
    return raw::UnpackCost(*state_->packed_best.data());
  }

  void ReadBest(GpuRunResult& result) {
    const std::int64_t packed = detail::DownloadPacked(state_->packed_best);
    result.best_cost = raw::UnpackCost(packed);
    result.best = detail::DownloadRow(state_->pbest, state_->problem.n(),
                                      raw::UnpackThread(packed));
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
                     raw::CopyRow(d_gbest, d_pbest + tid * n, n);
                     t.charge(static_cast<std::uint64_t>(n));
                   });
  }

  ParallelDpsoParams params_;
  std::unique_ptr<DpsoDeviceState> state_;
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
