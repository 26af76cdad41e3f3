#pragma once
/// \file bnb.hpp
/// \brief Non-recursive parallel branch-and-bound over job sequences.
///
/// The scalable exact tier: where core/exact stops at n <= 10 (brute
/// force) or n <= 24 unrestricted-only (subset enumeration), this solver
/// proves optimality for both CDD and UCDDCP — restricted CDD included —
/// and degrades gracefully into "best incumbent + certified lower bound"
/// when a deadline or node budget cuts it short.
///
/// Search space.  By the V-shape dominance property (core/vshape) there is
/// an optimal schedule whose early side is ordered by nonincreasing
/// P_i/alpha_i and whose tardy side by nondecreasing P_i/beta_i, so the
/// solver branches over *side assignments*, not permutations: each depth
/// assigns one job to the early or tardy side (for UCDDCP additionally
/// uncompressed or fully compressed — Property 2 makes compression
/// all-or-nothing — giving four classes whose ratio keys use the chosen
/// effective processing time).  A complete assignment determines the one
/// V-shape-consistent sequence, which is evaluated in closed form.
///
/// Restricted instances (d < sum P_i) additionally admit one *straddling*
/// job (starts before d, completes after it) in schedules that begin at
/// t = 0; leaves therefore also score every tardy-assigned job promoted to
/// the straddler slot, and the lower bound carries a one-job slack term so
/// it stays valid for those candidates.
///
/// Bounding.  A node's bound is the exact pairwise cost of the committed
/// jobs (early cross terms, tardy self + cross terms, compression
/// penalties) plus, per free job, the cheaper of its all-early / all-tardy
/// relaxation marginals against the committed sets — free-free
/// interactions are relaxed to zero.  Every quantity is integral, so
/// bounds are exact, and pruning is *strict* (bound > incumbent): ties are
/// never cut, which makes the returned optimum — cost and sequence — a
/// pure function of the instance, independent of worker count and timing.
///
/// Execution.  No recursion: each worker runs an explicit fixed-size layer
/// stack over flat SoA side arrays (the offload-friendly shape).  The tree
/// is split at a shallow frontier into subtree roots distributed over the
/// process-wide sim::exec::HostThreadPool, sharing one atomic incumbent
/// for pruning; per-root results are reduced in root order afterwards, so
/// the reduction is deterministic even though exploration is not.
/// Cooperative cancellation via core/stop_token: a deadline never fails
/// the solve, it returns the incumbent plus the certified lower bound of
/// everything left unexplored.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/exact.hpp"
#include "core/instance.hpp"
#include "core/sequence.hpp"
#include "core/stop_token.hpp"
#include "core/types.hpp"
#include "meta/engine.hpp"

namespace cdd::exact {

/// Hard guard on instance size (worst case is 2^n nodes); larger instances
/// throw ExactLimitError.  Overridable per call through BnbParams.
inline constexpr std::size_t kBnbDefaultMaxJobs = 32;

/// Default iterations of the serial-SA polish of the incumbent seed.
inline constexpr std::uint64_t kBnbWarmStart = 256;

/// Tuning knobs of one branch-and-bound run.  None of them changes a
/// *completed* run's sequence, cost or proof — only how fast it gets there
/// (truncation knobs decide whether it completes at all).
struct BnbParams {
  /// Subtree-root workers; 0 resolves sim::exec::ActiveExecWorkers()
  /// (the CDD_EXEC_WORKERS cap).  The result is worker-count invariant.
  unsigned workers = 0;
  /// Depth at which the tree is split into parallel subtree roots;
  /// 0 picks the shallowest depth giving ~8 roots per worker.
  std::uint32_t frontier_depth = 0;
  /// Iterations of the serial-SA polish applied to the V-shape seed that
  /// becomes the initial incumbent; unset means kBnbWarmStart, 0
  /// disables the polish.  Uses a private RNG stream — no other engine's
  /// schedule is perturbed.
  std::optional<std::uint64_t> warm_start;
  /// Node budget; 0 = unlimited.  Exhausting it truncates like a deadline.
  std::uint64_t max_nodes = 0;
  /// Seed of the warm-start SA chain.
  std::uint64_t seed = 1;
  /// Cooperative cancellation (deadline / explicit stop).
  StopToken stop{};
  /// Size guard; exceeding it throws ExactLimitError.
  std::size_t max_jobs = kBnbDefaultMaxJobs;
};

/// Outcome of a branch-and-bound run.  When `proven_optimal` the cost is
/// the exact optimum and `lower_bound == cost`; when truncated, `sequence`
/// is the best incumbent found (never worse than the V-shape/SA seed) and
/// `lower_bound` is a certified bound on the true optimum:
/// lower_bound <= optimum <= cost always holds.
struct BnbResult {
  Sequence sequence;
  Cost cost = kInfiniteCost;
  Cost lower_bound = 0;
  /// Nodes pushed onto the layer stacks, summed over workers.  Telemetry:
  /// pruning races against the shared incumbent, so unlike the result
  /// fields this count is only reproducible for single-worker runs.
  std::uint64_t nodes_expanded = 0;
  bool proven_optimal = false;
};

/// Exact CDD solve (restricted or unrestricted).
/// Throws ExactLimitError when n > params.max_jobs.
BnbResult BranchAndBoundCdd(const Instance& instance,
                            const BnbParams& params = {});

/// Exact UCDDCP solve.  Throws ExactLimitError when n > params.max_jobs
/// and std::invalid_argument when the instance is restricted (the UCDDCP
/// objective is only defined for d >= sum P_i).
BnbResult BranchAndBoundUcddcp(const Instance& instance,
                               const BnbParams& params = {});

/// Dispatches on instance.problem() (kCdd / kUcddcp; kCddcp has no O(n)
/// evaluator and is rejected with std::invalid_argument).
BnbResult BranchAndBound(const Instance& instance,
                         const BnbParams& params = {});

/// Creates a resumable branch-and-bound engine (dispatching on
/// instance.problem() like BranchAndBound).  Construction runs the whole
/// setup phase — guards, V-shape + warm-start seed, frontier split — and
/// Step units are search-tree nodes.  With params.workers == 1 a Step
/// slice can pause inside a subtree root and the next slice continues the
/// live DFS; with several workers the shared-incumbent
/// parallel sweep is not pausable, so the first Step runs it to
/// completion.  Finish() maps the exact-tier record onto EngineOutput
/// (best_cost = incumbent, evaluations = nodes expanded, stopped = not
/// proven optimal); callers that need the lower bound and proof flag
/// should keep using BranchAndBound.
std::unique_ptr<meta::Engine> MakeBnbEngine(const Instance& instance,
                                            const BnbParams& params = {});

}  // namespace cdd::exact
