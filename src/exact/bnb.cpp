#include "exact/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/vshape.hpp"
#include "cudasim/exec/backend.hpp"
#include "cudasim/exec/host_pool.hpp"
#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/sa.hpp"
#include "trace/tracer.hpp"

namespace cdd::exact {
namespace {

// ---------------------------------------------------------------------------
// Job classes.  A "mode" commits a job to one side of the V with one
// effective processing time: CDD jobs have two modes (early / tardy),
// compressible UCDDCP jobs four (Property 2 makes compression
// all-or-nothing, so the only effective times are P_i and M_i).

struct Mode {
  Time p = 0;      ///< effective processing time under this class
  Cost pen = 0;    ///< alpha_i on the early side, beta_i on the tardy side
  Cost extra = 0;  ///< gamma_i * (P_i - M_i) when compressed
  bool early = false;
};

struct JobModes {
  Mode m[4];
  int count = 0;
};

/// Immutable per-run search data.
struct Ctx {
  std::int32_t n = 0;
  Time d = 0;
  bool restricted = false;  ///< CDD with d < sum P_i (straddler possible)
  std::vector<JobModes> modes;  ///< by job id
  std::vector<JobId> order;     ///< branching order (decreasing P_i)
};

Ctx BuildCtx(const Instance& instance, bool controllable) {
  Ctx ctx;
  ctx.n = static_cast<std::int32_t>(instance.size());
  ctx.d = instance.due_date();
  ctx.restricted = !controllable && !instance.is_unrestricted();
  ctx.modes.resize(instance.size());
  for (std::int32_t j = 0; j < ctx.n; ++j) {
    const Job& job = instance.job(static_cast<std::size_t>(j));
    JobModes& jm = ctx.modes[static_cast<std::size_t>(j)];
    jm.m[jm.count++] = {job.proc, job.early, 0, true};
    jm.m[jm.count++] = {job.proc, job.tardy, 0, false};
    if (controllable && job.min_proc < job.proc) {
      const Cost extra = job.compress * (job.proc - job.min_proc);
      jm.m[jm.count++] = {job.min_proc, job.early, extra, true};
      jm.m[jm.count++] = {job.min_proc, job.tardy, extra, false};
    }
  }
  // Branch the long jobs first: they dominate every pairwise term, so the
  // bound separates early.  Ties by id keep the tree deterministic.
  ctx.order.resize(instance.size());
  for (std::int32_t j = 0; j < ctx.n; ++j) {
    ctx.order[static_cast<std::size_t>(j)] = j;
  }
  std::sort(ctx.order.begin(), ctx.order.end(), [&](JobId a, JobId b) {
    const Time pa = instance.job(static_cast<std::size_t>(a)).proc;
    const Time pb = instance.job(static_cast<std::size_t>(b)).proc;
    return pa != pb ? pa > pb : a < b;
  });
  return ctx;
}

// Ratio-order predicates in exact integer cross-products (ties by id).
// Early side: nonincreasing p/pen; tardy side: nondecreasing p/pen.
bool EarlyBefore(Time pa, Cost na, JobId a, Time pb, Cost nb, JobId b) {
  const Cost lhs = pa * nb;
  const Cost rhs = pb * na;
  return lhs != rhs ? lhs > rhs : a < b;
}

bool TardyBefore(Time pa, Cost na, JobId a, Time pb, Cost nb, JobId b) {
  const Cost lhs = pa * nb;
  const Cost rhs = pb * na;
  return lhs != rhs ? lhs < rhs : a < b;
}

// ---------------------------------------------------------------------------
// Per-worker search state: two ratio-sorted SoA side arrays plus the
// explicit layer stack — no recursion, bounded memory, offload-friendly.

struct Side {
  std::vector<JobId> id;
  std::vector<Time> p;
  std::vector<Cost> pen;
  std::vector<Cost> inv;  ///< per-entry self+pair mass (straddler slack)
  std::int32_t count = 0;

  explicit Side(std::size_t n) : id(n), p(n), pen(n), inv(n) {}

  void Insert(std::int32_t pos, JobId j, Time pj, Cost penj, Cost invj) {
    for (std::int32_t i = count; i > pos; --i) {
      id[static_cast<std::size_t>(i)] = id[static_cast<std::size_t>(i - 1)];
      p[static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(i - 1)];
      pen[static_cast<std::size_t>(i)] = pen[static_cast<std::size_t>(i - 1)];
      inv[static_cast<std::size_t>(i)] = inv[static_cast<std::size_t>(i - 1)];
    }
    id[static_cast<std::size_t>(pos)] = j;
    p[static_cast<std::size_t>(pos)] = pj;
    pen[static_cast<std::size_t>(pos)] = penj;
    inv[static_cast<std::size_t>(pos)] = invj;
    ++count;
  }

  void Remove(std::int32_t pos) {
    --count;
    for (std::int32_t i = pos; i < count; ++i) {
      id[static_cast<std::size_t>(i)] = id[static_cast<std::size_t>(i + 1)];
      p[static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(i + 1)];
      pen[static_cast<std::size_t>(i)] = pen[static_cast<std::size_t>(i + 1)];
      inv[static_cast<std::size_t>(i)] = inv[static_cast<std::size_t>(i + 1)];
    }
  }
};

/// One stack frame of the non-recursive depth-first search.
struct Layer {
  std::uint8_t next_mode = 0;   ///< next class to try at this depth
  std::uint8_t side_early = 0;  ///< side of the currently open child
  std::int32_t pos = 0;         ///< its insertion position
  Cost delta = 0;               ///< its committed-cost increment
};

struct Dfs {
  const Ctx& ctx;
  Side early;
  Side tardy;
  Time early_sum = 0;   ///< sum of effective early processing times
  Cost assigned = 0;    ///< exact pairwise cost of the committed jobs
  std::vector<Layer> layers;
  Sequence scratch;     ///< leaf sequence buffer (reused, no allocation)

  explicit Dfs(const Ctx& c)
      : ctx(c),
        early(static_cast<std::size_t>(c.n)),
        tardy(static_cast<std::size_t>(c.n)),
        layers(static_cast<std::size_t>(c.n) + 1) {
    scratch.reserve(static_cast<std::size_t>(c.n));
  }

  // Pair/self cost of committing job j under mode m, plus its ratio-order
  // insertion position.  Early pair contributes alpha_first * p_second
  // (the first of the pair is farther from d), tardy pair
  // beta_second * p_first plus the job's own beta * p.
  Cost DeltaEarly(const Mode& m, JobId j, std::int32_t* pos_out) const {
    std::int32_t pos = 0;
    while (pos < early.count &&
           !EarlyBefore(m.p, m.pen, j, early.p[static_cast<std::size_t>(pos)],
                        early.pen[static_cast<std::size_t>(pos)],
                        early.id[static_cast<std::size_t>(pos)])) {
      ++pos;
    }
    Cost delta = m.extra;
    for (std::int32_t i = 0; i < pos; ++i) {
      delta += early.pen[static_cast<std::size_t>(i)] * m.p;
    }
    for (std::int32_t i = pos; i < early.count; ++i) {
      delta += m.pen * early.p[static_cast<std::size_t>(i)];
    }
    *pos_out = pos;
    return delta;
  }

  Cost DeltaTardy(const Mode& m, JobId j, std::int32_t* pos_out) const {
    std::int32_t pos = 0;
    while (pos < tardy.count &&
           !TardyBefore(m.p, m.pen, j, tardy.p[static_cast<std::size_t>(pos)],
                        tardy.pen[static_cast<std::size_t>(pos)],
                        tardy.id[static_cast<std::size_t>(pos)])) {
      ++pos;
    }
    Cost delta = m.extra + m.pen * m.p;
    for (std::int32_t i = 0; i < pos; ++i) {
      delta += m.pen * tardy.p[static_cast<std::size_t>(i)];
    }
    for (std::int32_t i = pos; i < tardy.count; ++i) {
      delta += tardy.pen[static_cast<std::size_t>(i)] * m.p;
    }
    *pos_out = pos;
    return delta;
  }

  void Push(const Mode& m, JobId j, std::int32_t pos, Cost delta) {
    if (m.early) {
      early.Insert(pos, j, m.p, m.pen, 0);
      early_sum += m.p;
    } else {
      for (std::int32_t i = 0; i < pos; ++i) {
        tardy.inv[static_cast<std::size_t>(i)] +=
            m.pen * tardy.p[static_cast<std::size_t>(i)];
      }
      for (std::int32_t i = pos; i < tardy.count; ++i) {
        tardy.inv[static_cast<std::size_t>(i)] +=
            tardy.pen[static_cast<std::size_t>(i)] * m.p;
      }
      tardy.Insert(pos, j, m.p, m.pen, delta - m.extra);
    }
    assigned += delta;
  }

  void Pop(const Layer& layer) {
    const std::int32_t pos = layer.pos;
    if (layer.side_early != 0) {
      early_sum -= early.p[static_cast<std::size_t>(pos)];
      early.Remove(pos);
    } else {
      const Time pj = tardy.p[static_cast<std::size_t>(pos)];
      const Cost penj = tardy.pen[static_cast<std::size_t>(pos)];
      tardy.Remove(pos);
      for (std::int32_t i = 0; i < pos; ++i) {
        tardy.inv[static_cast<std::size_t>(i)] -=
            penj * tardy.p[static_cast<std::size_t>(i)];
      }
      for (std::int32_t i = pos; i < tardy.count; ++i) {
        tardy.inv[static_cast<std::size_t>(i)] -=
            tardy.pen[static_cast<std::size_t>(i)] * pj;
      }
    }
    assigned -= layer.delta;
  }

  // Lower bound on every canonical completion of the node whose committed
  // jobs are order[0..depth).  Committed cost is exact; each free job adds
  // the cheaper of its all-early / all-tardy marginals against the
  // committed sides (free-free interactions relaxed to zero); restricted
  // instances subtract a one-job slack so the bound stays valid when a
  // tardy-side job straddles the due date in a start-at-0 schedule.
  Cost Bound(std::int32_t depth) const {
    Cost b = assigned;
    Cost slack = 0;
    for (std::int32_t k = depth; k < ctx.n; ++k) {
      const JobId j = ctx.order[static_cast<std::size_t>(k)];
      const JobModes& jm = ctx.modes[static_cast<std::size_t>(j)];
      Cost best = kInfiniteCost;
      for (int mi = 0; mi < jm.count; ++mi) {
        const Mode& m = jm.m[mi];
        std::int32_t pos = 0;
        if (m.early) {
          if (ctx.restricted && early_sum + m.p > ctx.d) continue;
          best = std::min(best, DeltaEarly(m, j, &pos));
        } else {
          best = std::min(best, DeltaTardy(m, j, &pos));
        }
      }
      // The tardy mode is always admissible, so `best` is finite.
      b += best;
      if (ctx.restricted) slack = std::max(slack, best);
    }
    if (ctx.restricted) {
      for (std::int32_t i = 0; i < tardy.count; ++i) {
        slack = std::max(slack, tardy.inv[static_cast<std::size_t>(i)]);
      }
      b -= slack;
    }
    return b < 0 ? Cost{0} : b;
  }

  // Canonical value of a complete assignment.  The pinned form (last early
  // job completes exactly at d) costs exactly `assigned`; restricted
  // instances additionally score every start-at-0 schedule with a
  // tardy-side job promoted into the straddler slot.  Builds the winning
  // sequence into `scratch`.
  Cost Leaf() {
    Cost best = assigned;
    std::int32_t straddler = -1;
    if (ctx.restricted && early_sum < ctx.d) {
      Cost early_cost = 0;  // early block anchored at t = 0
      Time c = 0;
      for (std::int32_t i = 0; i < early.count; ++i) {
        c += early.p[static_cast<std::size_t>(i)];
        early_cost += early.pen[static_cast<std::size_t>(i)] * (ctx.d - c);
      }
      for (std::int32_t s = 0; s < tardy.count; ++s) {
        const Time ps = tardy.p[static_cast<std::size_t>(s)];
        if (early_sum + ps <= ctx.d) continue;  // would not straddle
        Cost cost = early_cost;
        Time cc = early_sum + ps;
        cost += tardy.pen[static_cast<std::size_t>(s)] * (cc - ctx.d);
        for (std::int32_t i = 0; i < tardy.count; ++i) {
          if (i == s) continue;
          cc += tardy.p[static_cast<std::size_t>(i)];
          cost += tardy.pen[static_cast<std::size_t>(i)] * (cc - ctx.d);
        }
        if (cost < best) {
          best = cost;
          straddler = s;
        }
      }
    }
    scratch.clear();
    for (std::int32_t i = 0; i < early.count; ++i) {
      scratch.push_back(early.id[static_cast<std::size_t>(i)]);
    }
    if (straddler >= 0) {
      scratch.push_back(tardy.id[static_cast<std::size_t>(straddler)]);
    }
    for (std::int32_t i = 0; i < tardy.count; ++i) {
      if (i != straddler) {
        scratch.push_back(tardy.id[static_cast<std::size_t>(i)]);
      }
    }
    return best;
  }
};

// ---------------------------------------------------------------------------
// Shared run control: cooperative stop + node budget, polled in strides.

struct RunControl {
  StopToken stop;
  std::uint64_t max_nodes = 0;
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<bool> halted{false};

  /// Flushes a worker's local node count and reports whether to stop.
  bool ShouldStop(std::uint64_t flush) {
    if (flush > 0) nodes.fetch_add(flush, std::memory_order_relaxed);
    if (halted.load(std::memory_order_relaxed)) return true;
    if (stop.stop_requested() ||
        (max_nodes != 0 &&
         nodes.load(std::memory_order_relaxed) >= max_nodes)) {
      halted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

struct RootOutcome {
  Cost best = kInfiniteCost;
  Sequence seq;
  std::uint64_t nodes = 0;
  bool completed = false;
};

// Applies a frontier prefix (assumed feasible: the generator only emits
// surviving nodes).  Layers [0, prefix.size()) record the pushes so the
// stack shape matches a serial descent.
void ApplyPrefix(const Ctx& ctx, Dfs& dfs,
                 std::span<const std::uint8_t> prefix) {
  for (std::size_t k = 0; k < prefix.size(); ++k) {
    const JobId j = ctx.order[k];
    const Mode& m = ctx.modes[static_cast<std::size_t>(j)].m[prefix[k]];
    std::int32_t pos = 0;
    const Cost delta = m.early ? dfs.DeltaEarly(m, j, &pos)
                               : dfs.DeltaTardy(m, j, &pos);
    dfs.Push(m, j, pos, delta);
    Layer& layer = dfs.layers[k];
    layer.side_early = m.early ? 1 : 0;
    layer.pos = pos;
    layer.delta = delta;
  }
}

// How one ResumeDfs call ended.
enum class DfsResume {
  kCompleted,  ///< subtree exhausted; out.completed set
  kHalted,     ///< stop token / node budget fired (outcome incomplete)
  kPaused,     ///< per-call node allowance exhausted; state is resumable
};

// Non-recursive DFS below a frontier root.  Prunes strictly against the
// shared incumbent (ties survive) and records the subtree's best canonical
// leaf in DFS-first order.  The loop pauses — leaving (dfs, depth,
// unflushed) a complete continuation — when the caller's node allowance
// runs out; every push consumes one allowance unit, exactly mirroring the
// ++out.nodes accounting, so a run split across any allowance slices
// visits the identical node sequence as an uninterrupted run.
DfsResume ResumeDfs(const Ctx& ctx, Dfs& dfs, std::int32_t base,
                    std::atomic<Cost>& incumbent, RunControl& control,
                    RootOutcome& out, std::int32_t& depth,
                    std::uint64_t& unflushed, std::uint64_t& allowance) {
  for (;;) {
    if (allowance == 0) return DfsResume::kPaused;
    if (depth == ctx.n) {
      const Cost v = dfs.Leaf();
      if (v < out.best) {
        out.best = v;
        out.seq = dfs.scratch;
        Cost cur = incumbent.load(std::memory_order_relaxed);
        while (v < cur && !incumbent.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
      }
      if (depth == base) break;
      --depth;
      dfs.Pop(dfs.layers[static_cast<std::size_t>(depth)]);
      continue;
    }
    Layer& layer = dfs.layers[static_cast<std::size_t>(depth)];
    const JobId j = ctx.order[static_cast<std::size_t>(depth)];
    const JobModes& jm = ctx.modes[static_cast<std::size_t>(j)];
    bool descended = false;
    while (layer.next_mode < jm.count) {
      const Mode& m = jm.m[layer.next_mode++];
      if (m.early && ctx.restricted && dfs.early_sum + m.p > ctx.d) {
        continue;  // no canonical schedule fits this many early units
      }
      std::int32_t pos = 0;
      const Cost delta = m.early ? dfs.DeltaEarly(m, j, &pos)
                                 : dfs.DeltaTardy(m, j, &pos);
      dfs.Push(m, j, pos, delta);
      layer.side_early = m.early ? 1 : 0;
      layer.pos = pos;
      layer.delta = delta;
      ++out.nodes;
      --allowance;
      if ((++unflushed & 63u) == 0u && control.ShouldStop(64)) {
        unflushed = 0;
        dfs.Pop(layer);
        control.ShouldStop(0);
        return DfsResume::kHalted;
      }
      if (dfs.Bound(depth + 1) >
          incumbent.load(std::memory_order_relaxed)) {
        dfs.Pop(layer);
        continue;
      }
      ++depth;
      dfs.layers[static_cast<std::size_t>(depth)].next_mode = 0;
      descended = true;
      break;
    }
    if (descended) continue;
    if (depth == base) break;
    --depth;
    dfs.Pop(dfs.layers[static_cast<std::size_t>(depth)]);
  }
  control.ShouldStop(unflushed & 63u);
  out.completed = true;
  return DfsResume::kCompleted;
}

// One-shot DFS below a frontier root (the multi-worker path): unlimited
// allowance, so the only exits are completion and a halt.
bool RunDfs(const Ctx& ctx, Dfs& dfs, std::int32_t base,
            std::atomic<Cost>& incumbent, RunControl& control,
            RootOutcome& out) {
  std::int32_t depth = base;
  dfs.layers[static_cast<std::size_t>(depth)].next_mode = 0;
  std::uint64_t unflushed = 0;
  std::uint64_t allowance = ~std::uint64_t{0};
  return ResumeDfs(ctx, dfs, base, incumbent, control, out, depth, unflushed,
                   allowance) == DfsResume::kCompleted;
}

// ---------------------------------------------------------------------------
// Frontier: breadth-first expansion of the first few layers into subtree
// roots.  Serial and deterministic; prunes strictly against the seed
// incumbent, so a completed run's result is independent of the split.

struct Root {
  std::vector<std::uint8_t> prefix;
  Cost lb = 0;
};

bool GenerateFrontier(const Ctx& ctx, Cost seed_cost, std::size_t target,
                      std::uint32_t forced_depth, const StopToken& stop,
                      std::vector<Root>& roots, std::uint64_t& gen_nodes) {
  roots.assign(1, Root{});
  std::uint32_t depth = 0;
  Dfs dfs(ctx);
  while (depth < static_cast<std::uint32_t>(ctx.n)) {
    const bool deep_enough = forced_depth != 0
                                 ? depth >= forced_depth
                                 : roots.size() >= target;
    if (deep_enough) break;
    if (stop.stop_requested()) return false;  // roots = last complete level
    std::vector<Root> next;
    next.reserve(roots.size() * 2);
    for (const Root& r : roots) {
      ApplyPrefix(ctx, dfs, r.prefix);
      const JobId j = ctx.order[depth];
      const JobModes& jm = ctx.modes[static_cast<std::size_t>(j)];
      for (std::uint8_t mi = 0; mi < jm.count; ++mi) {
        const Mode& m = jm.m[mi];
        if (m.early && ctx.restricted && dfs.early_sum + m.p > ctx.d) {
          continue;
        }
        std::int32_t pos = 0;
        const Cost delta = m.early ? dfs.DeltaEarly(m, j, &pos)
                                   : dfs.DeltaTardy(m, j, &pos);
        dfs.Push(m, j, pos, delta);
        ++gen_nodes;
        const Cost lb =
            dfs.Bound(static_cast<std::int32_t>(depth) + 1);
        Layer layer;
        layer.side_early = m.early ? 1 : 0;
        layer.pos = pos;
        layer.delta = delta;
        if (lb <= seed_cost) {
          Root child;
          child.prefix = r.prefix;
          child.prefix.push_back(mi);
          child.lb = lb;
          next.push_back(std::move(child));
        }
        dfs.Pop(layer);
      }
      // Unwind the prefix (pop in reverse push order).
      for (std::size_t k = r.prefix.size(); k > 0; --k) {
        dfs.Pop(dfs.layers[k - 1]);
      }
    }
    roots = std::move(next);
    ++depth;
    if (roots.empty()) break;  // everything pruned: the seed is optimal
  }
  return true;
}

// ---------------------------------------------------------------------------
// Resumable engine.  Construction runs the whole setup phase (guards,
// normalization, V-shape + warm-start seed, frontier split); Step processes
// subtree roots in frontier order with nodes as the budget unit.  With one
// worker the root loop is fully resumable — a Step slice can pause inside a
// root and the next slice continues the live DFS.  With several workers
// the shared-incumbent ParallelFor cannot pause mid-flight, so the
// first Step runs it to completion (preemption then lands after the run;
// pass workers = 1 when slice-granular pausing matters more than speed).

using Clock = std::chrono::steady_clock;

class BnbEngine final : public meta::Engine {
 public:
  BnbEngine(const Instance& raw, const BnbParams& params, bool controllable)
      : params_(params) {
    const auto t_start = Clock::now();
    const std::size_t n = raw.size();
    if (n > params.max_jobs) {
      throw ExactLimitError(
          controllable ? "BranchAndBoundUcddcp" : "BranchAndBoundCdd", n,
          params.max_jobs);
    }
    if (controllable && !raw.is_unrestricted()) {
      throw std::invalid_argument(
          "BranchAndBoundUcddcp: instance is restricted (d < sum P_i); the "
          "UCDDCP objective requires the unrestricted case");
    }
    const Instance instance =
        controllable ? (raw.problem() == Problem::kUcddcp
                            ? raw
                            : Instance(Problem::kUcddcp, raw.due_date(),
                                       raw.jobs()))
                     : raw.as_cdd();

    ctx_ = BuildCtx(instance, controllable);

    // Incumbent seed: the V-shape constructive heuristic, optionally
    // polished by a short serial-SA chain on a private RNG stream.  Strict
    // pruning means the seed only ever accelerates the search — the
    // returned optimum does not depend on it.
    const meta::SequenceObjective objective =
        meta::SequenceObjective::ForInstance(instance);
    seed_seq_ = VShapeSeed(instance);
    seed_cost_ = objective.Evaluate(seed_seq_);
    const std::uint64_t warm = params.warm_start.value_or(kBnbWarmStart);
    if (warm > 0 && !params.stop.stop_requested()) {
      meta::SaParams sa;
      sa.budget = {
          .iterations = warm, .seed = params.seed, .stop = params.stop};
      sa.initial_temperature = 1.0;  // polish, not a cold-start search
      const meta::RunResult polished = meta::RunSerialSa(objective, sa,
                                                         seed_seq_);
      if (polished.best_cost < seed_cost_) {
        seed_cost_ = polished.best_cost;
        seed_seq_ = polished.best;
      }
    }

    workers_ =
        params.workers != 0 ? params.workers : sim::exec::ActiveExecWorkers();
    if (workers_ == 0) workers_ = 1;

    const std::size_t target =
        std::max<std::size_t>(32, static_cast<std::size_t>(workers_) * 8);
    gen_complete_ = GenerateFrontier(ctx_, seed_cost_, target,
                                     params.frontier_depth,
                                     params.stop, roots_, gen_nodes_);

    control_.stop = params.stop;
    control_.max_nodes = params.max_nodes;
    control_.nodes.store(gen_nodes_, std::memory_order_relaxed);
    incumbent_.store(seed_cost_, std::memory_order_relaxed);
    outcomes_.resize(roots_.size());
    dfs_ = std::make_unique<Dfs>(ctx_);

    if (!gen_complete_) {
      status_ = meta::StepStatus::kStopped;
    } else if (roots_.empty()) {
      status_ = meta::StepStatus::kDone;  // everything pruned: seed optimal
    }
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  meta::StepStatus Step(std::uint64_t units) override {
    if (status_ != meta::StepStatus::kRunning || units == 0) return status_;
    const auto t_start = Clock::now();
    CDD_TRACE_SPAN("exact.bnb");
    if (workers_ > 1) {
      StepParallel();
    } else {
      StepSerial(units);
    }
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
    return status_;
  }

  std::uint64_t Remaining() const override {
    if (status_ != meta::StepStatus::kRunning) return 0;
    if (params_.max_nodes == 0) return meta::kStepAll;
    const std::uint64_t consumed = gen_nodes_ + dfs_consumed_;
    return params_.max_nodes > consumed ? params_.max_nodes - consumed : 0;
  }

  Cost BestCost() const override {
    return incumbent_.load(std::memory_order_relaxed);
  }

  meta::EngineOutput Finish() override {
    const BnbResult bnb = FinishBnb();
    meta::EngineOutput out;
    out.result.best = bnb.sequence;
    out.result.best_cost = bnb.cost;
    out.result.evaluations = bnb.nodes_expanded;
    out.result.wall_seconds = elapsed_;
    out.result.stopped = !bnb.proven_optimal;
    return out;
  }

  /// The full exact-tier record (lower bound + proof flag), which the
  /// generic EngineOutput cannot carry.
  BnbResult FinishBnb() {
    // Deterministic reduction: roots in frontier order, strict improvement —
    // together with strict pruning this reproduces the serial DFS-first
    // optimum for every completed run, at any worker count.
    Cost best_leaf = kInfiniteCost;
    const Sequence* best_seq = nullptr;
    std::uint64_t dfs_nodes = 0;
    bool all_done = gen_complete_;
    Cost min_open = kInfiniteCost;
    for (std::size_t r = 0; r < outcomes_.size(); ++r) {
      dfs_nodes += outcomes_[r].nodes;
      if (outcomes_[r].best < best_leaf) {
        best_leaf = outcomes_[r].best;
        best_seq = &outcomes_[r].seq;
      }
      if (!outcomes_[r].completed) {
        all_done = false;
        min_open = std::min(min_open, roots_[r].lb);
      }
    }
    if (!gen_complete_) {
      for (const Root& r : roots_) min_open = std::min(min_open, r.lb);
    }

    BnbResult result;
    if (best_leaf <= seed_cost_ && best_seq != nullptr) {
      result.cost = best_leaf;
      result.sequence = *best_seq;
    } else {
      result.cost = seed_cost_;
      result.sequence = seed_seq_;
    }
    result.nodes_expanded = gen_nodes_ + dfs_nodes;
    if (all_done || min_open >= result.cost) {
      result.proven_optimal = true;
      result.lower_bound = result.cost;
    } else {
      result.lower_bound =
          std::max<Cost>(0, std::min(result.cost, min_open));
    }

    CDD_TRACE_COUNTER("bnb.nodes",
                      static_cast<Cost>(result.nodes_expanded));
    CDD_TRACE_COUNTER("bnb.lower_bound", result.lower_bound);
    CDD_TRACE_COUNTER("bnb.gap", result.cost - result.lower_bound);
    return result;
  }

 private:
  // The multi-worker path: one shared-incumbent ParallelFor, not pausable.
  void StepParallel() {
    sim::exec::HostThreadPool::Instance().ParallelFor(
        roots_.size(), workers_, [&](std::size_t r) {
          RootOutcome& out = outcomes_[r];
          if (control_.ShouldStop(0)) return;  // left incomplete
          if (roots_[r].lb > incumbent_.load(std::memory_order_relaxed)) {
            out.completed = true;  // nothing at or below the optimum here
            return;
          }
          Dfs dfs(ctx_);
          ApplyPrefix(ctx_, dfs, roots_[r].prefix);
          RunDfs(ctx_, dfs,
                 static_cast<std::int32_t>(roots_[r].prefix.size()),
                 incumbent_, control_, out);
        });
    bool all_completed = true;
    for (const RootOutcome& out : outcomes_) {
      dfs_consumed_ += out.nodes;
      all_completed = all_completed && out.completed;
    }
    status_ = all_completed ? meta::StepStatus::kDone
                            : meta::StepStatus::kStopped;
  }

  // The single-worker path: roots in frontier order on the calling thread,
  // pausing mid-root when the slice's node allowance runs out.  Identical
  // node visits, flush strides and incumbent updates to a one-worker
  // ParallelFor, so completed results (and node counts) match it exactly.
  void StepSerial(std::uint64_t units) {
    std::uint64_t allowance = units;
    while (root_ < roots_.size()) {
      if (!in_root_) {
        if (control_.ShouldStop(0)) {
          // Remaining roots stay incomplete, exactly like workers that
          // observe the halt flag before starting their root.
          status_ = meta::StepStatus::kStopped;
          return;
        }
        if (roots_[root_].lb >
            incumbent_.load(std::memory_order_relaxed)) {
          outcomes_[root_].completed = true;
          ++root_;
          continue;
        }
        // Fresh per-root search state: stale entries beyond the counts are
        // never read, so resetting the aggregates is equivalent to the
        // fresh Dfs a worker would construct.
        dfs_->early.count = 0;
        dfs_->tardy.count = 0;
        dfs_->early_sum = 0;
        dfs_->assigned = 0;
        ApplyPrefix(ctx_, *dfs_, roots_[root_].prefix);
        depth_ = static_cast<std::int32_t>(roots_[root_].prefix.size());
        dfs_->layers[static_cast<std::size_t>(depth_)].next_mode = 0;
        unflushed_ = 0;
        in_root_ = true;
      }
      const std::uint64_t before = allowance;
      const DfsResume res = ResumeDfs(
          ctx_, *dfs_, static_cast<std::int32_t>(roots_[root_].prefix.size()),
          incumbent_, control_, outcomes_[root_], depth_, unflushed_,
          allowance);
      dfs_consumed_ += before - allowance;
      switch (res) {
        case DfsResume::kPaused:
          return;  // slice exhausted mid-root; state stays live
        case DfsResume::kHalted:
          status_ = meta::StepStatus::kStopped;
          in_root_ = false;
          return;
        case DfsResume::kCompleted:
          in_root_ = false;
          ++root_;
          break;
      }
    }
    status_ = meta::StepStatus::kDone;
  }

  BnbParams params_;
  Ctx ctx_;
  Sequence seed_seq_;
  Cost seed_cost_ = kInfiniteCost;
  unsigned workers_ = 1;
  std::vector<Root> roots_;
  std::uint64_t gen_nodes_ = 0;
  bool gen_complete_ = true;
  RunControl control_;
  std::atomic<Cost> incumbent_{kInfiniteCost};
  std::vector<RootOutcome> outcomes_;
  std::unique_ptr<Dfs> dfs_;
  std::size_t root_ = 0;
  bool in_root_ = false;
  std::int32_t depth_ = 0;
  std::uint64_t unflushed_ = 0;
  std::uint64_t dfs_consumed_ = 0;
  meta::StepStatus status_ = meta::StepStatus::kRunning;
  double elapsed_ = 0.0;
};

BnbResult Run(const Instance& raw, const BnbParams& params,
              bool controllable) {
  BnbEngine engine(raw, params, controllable);
  engine.Step(meta::kStepAll);
  return engine.FinishBnb();
}

}  // namespace

BnbResult BranchAndBoundCdd(const Instance& instance,
                            const BnbParams& params) {
  return Run(instance, params, /*controllable=*/false);
}

BnbResult BranchAndBoundUcddcp(const Instance& instance,
                               const BnbParams& params) {
  return Run(instance, params, /*controllable=*/true);
}

BnbResult BranchAndBound(const Instance& instance, const BnbParams& params) {
  switch (instance.problem()) {
    case Problem::kCdd:
      return BranchAndBoundCdd(instance, params);
    case Problem::kUcddcp:
      return BranchAndBoundUcddcp(instance, params);
    case Problem::kCddcp:
      break;
  }
  throw std::invalid_argument(
      "BranchAndBound: the restricted controllable problem (kCddcp) has no "
      "O(n) evaluator to bound against");
}

std::unique_ptr<meta::Engine> MakeBnbEngine(const Instance& instance,
                                            const BnbParams& params) {
  switch (instance.problem()) {
    case Problem::kCdd:
      return std::make_unique<BnbEngine>(instance, params,
                                         /*controllable=*/false);
    case Problem::kUcddcp:
      return std::make_unique<BnbEngine>(instance, params,
                                         /*controllable=*/true);
    case Problem::kCddcp:
      break;
  }
  throw std::invalid_argument(
      "MakeBnbEngine: the restricted controllable problem (kCddcp) has no "
      "O(n) evaluator to bound against");
}

}  // namespace cdd::exact
