#pragma once
/// \file detail.hpp
/// \brief Internals shared by the parallel solvers (fitness kernel,
/// ensemble initialization, reduction helpers, device-engine
/// bookkeeping).  Not part of the public API.

#include <cstdint>
#include <optional>
#include <span>

#include "core/candidate_pool.hpp"
#include "core/sequence.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"
#include "meta/engine.hpp"
#include "meta/search_loop.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/launch_config.hpp"
#include "parallel/result.hpp"

namespace cdd::par::detail {

/// Throws std::invalid_argument when \p problem's costs can overflow the
/// cost field of the packed reduction key.
void RequirePackableCosts(const DeviceProblem& problem, const char* engine);

/// Checks a launch before a device engine allocates anything: the geometry
/// must fit \p device, and every thread id must fit the packed (cost,
/// thread) reduction key — ensemble at most 2^kThreadBits, since
/// PackCostThread masks larger ids and the wrong thread would then
/// broadcast its state with the winner's cost.  \p engine prefixes the
/// error messages.
void ValidateLaunch(const sim::Device& device, const LaunchConfig& config,
                    const char* engine);

/// The host-side record of a finished device run.
meta::EngineOutput ToEngineOutput(GpuRunResult gpu);

/// meta::SearchLoop for the device engines (psa, pdpso, psa-sync), adding
/// only the device clock.  Beyond the loop hooks (BeginSlice is
/// `BeginDeviceSlice` here), \p Derived supplies
/// `ReadBest(GpuRunResult&)`, which fills best/best_cost at Finish,
/// charging whatever D2H a real device would pay.
template <class Derived>
class DeviceEngine : public meta::SearchLoop<Derived, GpuRunResult> {
 public:
  meta::EngineOutput Finish() override { return ToEngineOutput(FinishGpu()); }

  /// Full GPU result including the modeled clock (what the RunParallel*
  /// functions return).  Memoized until the next Step, so repeated
  /// Finish calls stay idempotent: a second call must not charge a second
  /// modeled transfer.
  GpuRunResult FinishGpu() {
    if (finish_cache_) return *finish_cache_;
    GpuRunResult result = this->loop_.result;
    {
      const meta::ElapsedTimer timer(result.wall_seconds);
      static_cast<Derived&>(*this).ReadBest(result);
    }
    result.wall_seconds += this->loop_.elapsed;
    result.device_seconds = ConsumedDevice();
    finish_cache_ = result;
    return result;
  }

  auto BeginSlice() {
    finish_cache_.reset();
    return static_cast<Derived&>(*this).BeginDeviceSlice();
  }

 protected:
  /// Marks the device clock and validates the launch (ValidateLaunch).
  DeviceEngine(sim::Device& device, const LaunchConfig& config,
               const meta::SearchBudget& budget, const char* engine)
      : meta::SearchLoop<Derived, GpuRunResult>(budget),
        device_(device),
        clock_at_start_(device.sim_time_s()) {
    ValidateLaunch(device, config, engine);
  }

  /// Modeled device seconds this run has consumed.
  double ConsumedDevice() const {
    return device_.sim_time_s() - clock_at_start_;
  }

  sim::Device& device_;

 private:
  const double clock_at_start_;
  std::optional<GpuRunResult> finish_cache_;
};

/// Fills \p rows with rows.size() / n initial sequences of length n, one
/// per thread, drawn from the thread's private init stream.  The layout is
/// row-major: thread t owns rows[t*n .. t*n + n).  The device engines pass
/// their first device buffer and meter its upload with Device::RecordH2D,
/// so the ensemble never takes a host-heap round trip.
///
/// Without \p base every row is an independent uniform permutation (the
/// paper's default).  With \p base (e.g. the V-shape constructive seed),
/// thread 0 keeps it verbatim and every other thread gets it diversified
/// by a small Fisher-Yates shuffle from its own stream — "the initial
/// configuration ... can be the same or different for all chains"
/// (Section V-A).
void WriteInitialSequences(std::span<JobId> rows, std::int32_t n,
                           std::uint64_t seed,
                           const Sequence* base = nullptr);

/// Builds a kDevice-tagged CandidatePoolView over raw device buffers
/// (dense rows, stride == n) — the geometry LaunchFitness consumes.  The
/// tag keeps device views exempt from the host pools' buffer-generation
/// staleness check and tells the transfer-cost model no H2D staging is
/// needed (the rows are already resident).
inline CandidatePoolView DeviceView(JobId* seqs, Cost* costs,
                                    std::int32_t n, std::uint32_t count) {
  CandidatePoolView view;
  view.seqs = seqs;
  view.costs = costs;
  view.n = n;
  view.stride = n;
  view.count = count;
  view.backend = core::PoolBackend::kDevice;
  return view;
}

/// Where the fitness kernel reads the per-unit penalties from.
/// kShared is the paper's choice (Section VI-A); kTexture is its stated
/// future work (Section IX); kGlobal is the unoptimized baseline.
enum class PenaltyMemory { kShared, kGlobal, kTexture };

/// Launches the fitness kernel of Section VI-A over the rows of \p pool —
/// the same CandidatePoolView geometry the host engines batch through,
/// normally built over device buffers via DeviceView (thread t evaluates
/// pool.row(t) into pool.costs[t]; pool.pinned may be null).  Penalty
/// reads are charged as shared-memory staging (where it fits), read-only
/// texture fetches, or direct global loads, per \p memory.  The launch has
/// one phase: the staging phase is modeled by its charge and its
/// shared-memory request, not executed.
///
/// Transfer accounting: the view's backend tag decides whether the launch
/// models staging copies.  kDevice views are consumed in place
/// (zero-copy — already resident); pageable kHost views charge one H2D
/// for the rows before the kernel and one D2H for the results after it,
/// metered on \p device like every other transfer.
void LaunchFitness(sim::Device& device, const DeviceProblem& problem,
                   const LaunchConfig& config, const CandidatePoolView& pool,
                   const char* kernel_name,
                   PenaltyMemory memory = PenaltyMemory::kShared);

/// How the best-of-ensemble reduction is implemented.
/// kAtomic is the paper's choice: "an atomic minimization function ...
/// inside the L2-Cache, which provides a good performance although the
/// full process results in a sequential execution order" (Section VI-D).
/// kTree is the canonical CUDA alternative: a shared-memory tree reduction
/// per block behind barriers, then one atomic per block.
enum class ReductionKind { kAtomic, kTree };

/// Launches the reduction kernel of Section VI-D: folds the packed
/// (costs[t], t) keys of all threads into *packed_best.
void LaunchReduction(sim::Device& device, const LaunchConfig& config,
                     const Cost* costs, std::int64_t* packed_best,
                     const char* kernel_name,
                     ReductionKind kind = ReductionKind::kAtomic);

/// Downloads the packed (cost, thread) ensemble best (one modeled D2H).
std::int64_t DownloadPacked(const sim::DeviceBuffer<std::int64_t>& packed);

/// Downloads the winning thread's row from a row-major sequence buffer.
Sequence DownloadRow(const sim::DeviceBuffer<JobId>& seqs, std::int32_t n,
                     std::uint32_t thread);

}  // namespace cdd::par::detail
