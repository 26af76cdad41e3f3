#pragma once
/// \file eval_raw.hpp
/// \brief Allocation-free O(n) sequence evaluators on raw arrays.
///
/// These are the library's equivalent of CUDA `__device__` functions: every
/// GPU-simulator kernel thread calls them directly on device buffers, and the
/// host-side convenience wrappers in eval_cdd.hpp / eval_ucddcp.hpp call the
/// very same code.  Keeping one implementation guarantees that the parallel
/// metaheuristics optimize exactly the objective the serial baselines and the
/// oracles see.
///
/// Algorithmic background (Section IV of the paper):
///  * EvalCdd implements the linear algorithm of Lässig et al. [7]: start the
///    schedule at t = 0 without idle time (Cheng & Kahlbacher [9]), then
///    repeatedly shift the whole block right to the next breakpoint — a
///    completion time coinciding with the due date (Hall et al. [10]) — while
///    the right derivative of the piecewise-linear cost is negative
///    (Theorem 1).
///  * EvalUcddcp implements the linear algorithm of Awasthi et al. [8]:
///    solve the CDD relaxation to fix the due-date position r (Property 1),
///    then decide each job's compression independently — a tardy job is
///    compressed to its minimum iff the suffix sum of tardiness unit
///    penalties exceeds its compression penalty, an early job iff the prefix
///    sum of earliness unit penalties of its predecessors does (Property 2
///    makes compression all-or-nothing).
///
/// Both functions are noexcept, perform no allocation and touch each input
/// element O(1) times.
///
/// Batched evaluation (the generation hot path): EvalCddFused folds the
/// second pass of EvalCdd into the breakpoint walk — the objective is
/// piecewise linear in the start time s with integral slope pl - pe, so the
/// cost at the chosen offset is the s = 0 cost plus slope x distance per
/// segment, bit-identical to the two-pass result in exact integer
/// arithmetic.  EvalUcddcpOnePass folds the CDD relaxation's crossing walk
/// into the Property-2 tardy walk (with d >= sum P the crossing walk's pl
/// is the suffix sum of beta), so a UCDDCP row is one backward walk to r
/// and one forward walk to r.  EvalCddBatch / EvalUcddcpBatch run these
/// row evaluators over B stride-aligned sequences of one candidate pool
/// while the instance arrays stay cache-resident, with no per-candidate
/// dispatch.  EvalCdd / EvalUcddcp keep the literal two-pass shape as the
/// reference oracles.

#include <cstdint>

#include "core/types.hpp"

namespace cdd::raw {

/// Result of evaluating a fixed job sequence.
struct EvalResult {
  Cost cost = 0;    ///< optimal objective value for this sequence.
  Time offset = 0;  ///< start time of the first job in the optimal schedule.
  /// 0-based *position* (index into the sequence) of the job whose
  /// completion time equals the due date, or -1 when the optimal schedule
  /// starts at t=0 with no job finishing exactly at d.
  std::int32_t pinned = -1;
};

/// \brief Optimal schedule cost of sequence \p seq for the CDD problem.
///
/// \param n      number of jobs (>= 1)
/// \param d      common due date (>= 0)
/// \param seq    permutation of {0..n-1}; seq[k] is processed k-th
/// \param proc   P_i, indexed by job id
/// \param alpha  earliness unit penalties, indexed by job id
/// \param beta   tardiness unit penalties, indexed by job id
inline EvalResult EvalCdd(std::int32_t n, Time d, const JobId* seq,
                          const Time* proc, const Cost* alpha,
                          const Cost* beta) noexcept {
  // Pass 1: left-aligned schedule (s = 0).  tau = last position whose
  // completion time is <= d; pe / pl = unit-penalty mass left / right of d.
  Time c = 0;
  Time prefix_tau = 0;
  std::int32_t tau = -1;
  Cost pe = 0;
  Cost pl = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    const JobId j = seq[i];
    c += proc[j];
    if (c <= d) {
      tau = i;
      prefix_tau = c;
      pe += alpha[j];
    } else {
      pl += beta[j];
    }
  }

  Time offset = 0;
  std::int32_t pinned = -1;
  if (tau >= 0) {
    if (prefix_tau < d) {
      // Not at a breakpoint.  Slide right to the first breakpoint only if
      // the cost is strictly decreasing there (right derivative pl-pe < 0).
      if (pl < pe) {
        offset = d - prefix_tau;
        pinned = tau;
      }
    } else {
      pinned = tau;  // s = 0 already has job tau finishing at d.
    }
    // Crossing loop: while making the pinned job tardy strictly improves
    // the cost (Theorem 1 Case 2), shift right by its processing time so
    // that the previous job completes at d.
    while (pinned > 0) {
      const JobId j = seq[pinned];
      const Cost pl_next = pl + beta[j];
      const Cost pe_next = pe - alpha[j];
      if (pl_next < pe_next) {
        offset += proc[j];
        pl = pl_next;
        pe = pe_next;
        --pinned;
      } else {
        break;
      }
    }
  }

  // Pass 2: evaluate the objective at the chosen offset.
  Cost cost = 0;
  c = offset;
  for (std::int32_t i = 0; i < n; ++i) {
    const JobId j = seq[i];
    c += proc[j];
    cost += (c <= d) ? alpha[j] * (d - c) : beta[j] * (c - d);
  }
  return {cost, offset, pinned};
}

/// \brief Optimal schedule cost of sequence \p seq for the UCDDCP problem.
///
/// Precondition: d >= sum(proc) (unrestricted case); callers that cannot
/// guarantee this should use Instance::Validate() first.  When no job is
/// pinned at the due date (possible only when every earliness penalty is
/// zero) compression can never pay off and the CDD cost is returned.
///
/// \param minproc  M_i, minimum processing times, indexed by job id
/// \param gamma    gamma_i, compression unit penalties, indexed by job id
/// \param x_out    optional (may be nullptr): receives the chosen reduction
///                 X_i per *job id*; all n entries are written.
inline EvalResult EvalUcddcp(std::int32_t n, Time d, const JobId* seq,
                             const Time* proc, const Time* minproc,
                             const Cost* alpha, const Cost* beta,
                             const Cost* gamma, Time* x_out = nullptr) noexcept {
  const EvalResult base = EvalCdd(n, d, seq, proc, alpha, beta);
  if (x_out != nullptr) {
    for (std::int32_t i = 0; i < n; ++i) x_out[i] = 0;
  }
  const std::int32_t r = base.pinned;
  if (r < 0) {
    return base;  // degenerate: no pinned job => no profitable compression.
  }

  Cost cost = 0;
  Time compressed_before_d = 0;  // sum of (P_k - X_k) over positions <= r

  // Tardy side: walk positions n-1 .. r+1 keeping the suffix sum of beta.
  // The tardiness of the job at position k is the sum of the effective
  // processing times of positions r+1..k, so one unit of compression of
  // position k saves `sb` (the beta-mass at or after k) and costs gamma.
  Cost sb = 0;
  for (std::int32_t i = n - 1; i > r; --i) {
    const JobId j = seq[i];
    sb += beta[j];
    const Time reducible = proc[j] - minproc[j];
    const Time x = (sb > gamma[j]) ? reducible : Time{0};
    cost += (proc[j] - x) * sb + gamma[j] * x;
    if (x_out != nullptr) x_out[j] = x;
  }

  // Early side: walk positions 0 .. r keeping the prefix sum of alpha of
  // strictly preceding jobs.  Compressing position k moves every earlier
  // job right toward d, saving `pa` per unit.
  Cost pa = 0;
  for (std::int32_t i = 0; i <= r; ++i) {
    const JobId j = seq[i];
    const Time reducible = proc[j] - minproc[j];
    const Time x = (pa > gamma[j]) ? reducible : Time{0};
    cost += (proc[j] - x) * pa + gamma[j] * x;
    compressed_before_d += proc[j] - x;
    if (x_out != nullptr) x_out[j] = x;
    pa += alpha[j];
  }

  return {cost, d - compressed_before_d, r};
}

/// \brief Single-pass variant of EvalCdd (bit-identical results).
///
/// Computes the s = 0 cost during the tau/pe/pl scan, then follows the
/// breakpoint walk of Theorem 1 accumulating slope x distance instead of
/// re-scanning the sequence: cost(s) is piecewise linear with right
/// derivative pl - pe, every quantity is integral, so the folded sum equals
/// the explicit second pass exactly.  This is the row evaluator behind the
/// batched entry points below and the simulator's fitness kernel; EvalCdd
/// keeps the literal two-pass shape of Lässig et al. as the reference.
inline EvalResult EvalCddFused(std::int32_t n, Time d, const JobId* seq,
                               const Time* proc, const Cost* alpha,
                               const Cost* beta) noexcept {
  Time c = 0;
  Time prefix_tau = 0;
  std::int32_t tau = -1;
  Cost pe = 0;
  Cost pl = 0;
  Cost cost = 0;  // objective of the left-aligned schedule (s = 0)
  for (std::int32_t i = 0; i < n; ++i) {
    const JobId j = seq[i];
    c += proc[j];
    if (c <= d) {
      tau = i;
      prefix_tau = c;
      pe += alpha[j];
      cost += alpha[j] * (d - c);
    } else {
      pl += beta[j];
      cost += beta[j] * (c - d);
    }
  }

  Time offset = 0;
  std::int32_t pinned = -1;
  if (tau >= 0) {
    if (prefix_tau < d) {
      // Slide right to the first breakpoint only while strictly improving;
      // no job crosses d on the way, so the slope pl - pe is constant.
      if (pl < pe) {
        offset = d - prefix_tau;
        cost += offset * (pl - pe);
        pinned = tau;
      }
    } else {
      pinned = tau;
    }
    while (pinned > 0) {
      const JobId j = seq[pinned];
      const Cost pl_next = pl + beta[j];
      const Cost pe_next = pe - alpha[j];
      if (pl_next < pe_next) {
        // Job `pinned` is tardy over the whole shift, so the slope on this
        // segment is pl_next - pe_next (negative by the branch condition).
        offset += proc[j];
        cost += proc[j] * (pl_next - pe_next);
        pl = pl_next;
        pe = pe_next;
        --pinned;
      } else {
        break;
      }
    }
  }
  return {cost, offset, pinned};
}

/// \brief Evaluates \p batch sequences of a stride-aligned SoA pool against
/// the CDD objective: row b lives at seqs[b*stride .. b*stride + n).
///
/// Writes costs[b] for every row; \p pinned and \p offsets are optional
/// parallel outputs.  The instance arrays are read once per row with no
/// per-candidate dispatch — this is the generation hot path shared by the
/// serial metaheuristics, the host ensembles and the service.
inline void EvalCddBatch(std::int32_t n, Time d, const JobId* seqs,
                         std::int32_t stride, std::int32_t batch,
                         const Time* proc, const Cost* alpha,
                         const Cost* beta, Cost* costs,
                         std::int32_t* pinned = nullptr,
                         Time* offsets = nullptr) noexcept {
  for (std::int32_t b = 0; b < batch; ++b) {
    const EvalResult r = EvalCddFused(
        n, d, seqs + static_cast<std::size_t>(b) * stride, proc, alpha,
        beta);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

/// Sum of P_i and sum of alpha_i: the two instance constants the one-pass
/// UCDDCP walk needs.  Batch callers compute them once per call.
struct UcddcpSums {
  Time proc = 0;
  Cost alpha = 0;
};

inline UcddcpSums SumUcddcp(std::int32_t n, const Time* proc,
                            const Cost* alpha) noexcept {
  UcddcpSums s;
  for (std::int32_t j = 0; j < n; ++j) {
    s.proc += proc[j];
    s.alpha += alpha[j];
  }
  return s;
}

/// True when the one-pass walk applies: d >= sum P (the unrestricted
/// case) and the CDD relaxation pins a job at d, i.e. d == sum P or the
/// all-early block slides right (sum alpha > 0).  Otherwise (r = -1, or a
/// restricted instance) the evaluators return EvalUcddcp's result.
inline bool UcddcpOnePassApplies(Time d, const UcddcpSums& s) noexcept {
  return s.proc == d || (s.proc < d && s.alpha > 0);
}

/// \brief The one-pass UCDDCP row walk (bit-identical to EvalUcddcp when
/// UcddcpOnePassApplies holds; \p sum_alpha is the instance's sum of alpha).
///
/// With d >= sum P the s = 0 schedule is all-early, so the CDD relaxation
/// starts with pl = 0, pe = sum alpha and the pinned position at n-1, and
/// its crossing walk moves position p to the tardy side while
/// pl + beta < pe - alpha.  That pl is exactly the Property-2 suffix sum
/// `sb` at p, so one backward walk decides each crossing, adds the
/// crossed position's tardy term, and stops at the due-date position r.
/// A forward walk over 0..r then adds the early terms.
inline EvalResult EvalUcddcpOnePass(std::int32_t n, Time d, const JobId* seq,
                                    const Time* proc, const Time* minproc,
                                    const Cost* alpha, const Cost* beta,
                                    const Cost* gamma,
                                    Cost sum_alpha) noexcept {
  Cost cost = 0;
  Cost sb = 0;          // suffix sum of beta over the tardy positions
  Cost pe = sum_alpha;  // alpha mass at or before the pinned position
  std::int32_t r = n - 1;
  for (; r > 0; --r) {
    const JobId j = seq[r];
    const Cost sb_next = sb + beta[j];
    const Cost pe_next = pe - alpha[j];
    if (!(sb_next < pe_next)) break;
    sb = sb_next;
    pe = pe_next;
    const Time x = (sb > gamma[j]) ? proc[j] - minproc[j] : Time{0};
    cost += (proc[j] - x) * sb + gamma[j] * x;
  }

  Time compressed_before_d = 0;
  Cost pa = 0;  // prefix sum of alpha of the strictly preceding positions
  for (std::int32_t i = 0; i <= r; ++i) {
    const JobId j = seq[i];
    const Time x = (pa > gamma[j]) ? proc[j] - minproc[j] : Time{0};
    cost += (proc[j] - x) * pa + gamma[j] * x;
    compressed_before_d += proc[j] - x;
    pa += alpha[j];
  }
  return {cost, d - compressed_before_d, r};
}

/// --- Parallel machines & early work ------------------------------------
///
/// An m-machine candidate is a permutation row plus m-1 ascending split
/// positions in [0, n]: machine k runs the contiguous slice
/// [splits[k-1], splits[k]) of the row (splits[-1] = 0, splits[m-1] = n),
/// in row order, as its own single-machine schedule.  Slices may be empty
/// — an idle machine contributes zero cost.  The splits of row b live at
/// splits[b*(m-1) .. b*(m-1) + m-1) in the pool's splits array.
///
/// EvalCddMachines evaluates the paper's total-penalty objective per
/// machine with the fused O(n) evaluator — each machine chooses its own
/// optimal start offset independently, so the sum of per-slice optima is
/// the optimal cost of the assignment+order encoded by the row.
///
/// EvalEarlyWork evaluates the late-work objective of arXiv:2007.12388:
/// every machine starts at t = 0 with no idle time, the work a machine
/// processes after d is max(0, L_k - d) where L_k is its load, and the
/// returned cost is the total late work (minimizing it maximizes total
/// early work, since the loads sum to a constant).  Order within a
/// machine cannot change its load, so the objective is a function of the
/// assignment alone — the search effectively explores set partitions.

/// Total-penalty cost of an m-machine candidate (see the block comment).
/// With m == 1 (splits may then be nullptr) this is exactly EvalCddFused.
inline EvalResult EvalCddMachines(std::int32_t n, std::int32_t m, Time d,
                                  const JobId* seq,
                                  const std::int32_t* splits,
                                  const Time* proc, const Cost* alpha,
                                  const Cost* beta) noexcept {
  if (m <= 1) return EvalCddFused(n, d, seq, proc, alpha, beta);
  Cost cost = 0;
  std::int32_t begin = 0;
  for (std::int32_t k = 0; k < m; ++k) {
    const std::int32_t end = (k + 1 < m) ? splits[k] : n;
    if (end > begin) {
      cost += EvalCddFused(end - begin, d, seq + begin, proc, alpha, beta)
                  .cost;
    }
    begin = end;
  }
  // The per-machine offsets/pinned positions do not fold into one scalar;
  // multi-machine results report cost only.
  return {cost, 0, -1};
}

/// Late-work cost of an m-machine candidate (see the block comment).
/// Also defined for m == 1: the whole row is one machine's load.
inline EvalResult EvalEarlyWork(std::int32_t n, std::int32_t m, Time d,
                                const JobId* seq, const std::int32_t* splits,
                                const Time* proc) noexcept {
  Cost cost = 0;
  std::int32_t begin = 0;
  for (std::int32_t k = 0; k < m; ++k) {
    const std::int32_t end = (k + 1 < m) ? splits[k] : n;
    Time load = 0;
    for (std::int32_t i = begin; i < end; ++i) load += proc[seq[i]];
    if (load > d) cost += load - d;
    begin = end;
  }
  return {cost, 0, -1};
}

/// Batched total-penalty evaluation of m-machine rows: row b pairs
/// seqs[b*stride ..) with splits[b*(m-1) ..).  With m == 1 this is
/// EvalCddBatch (splits may be nullptr).
inline void EvalCddMachinesBatch(std::int32_t n, std::int32_t m, Time d,
                                 const JobId* seqs, std::int32_t stride,
                                 const std::int32_t* splits,
                                 std::int32_t batch, const Time* proc,
                                 const Cost* alpha, const Cost* beta,
                                 Cost* costs,
                                 std::int32_t* pinned = nullptr,
                                 Time* offsets = nullptr) noexcept {
  if (m <= 1) {
    EvalCddBatch(n, d, seqs, stride, batch, proc, alpha, beta, costs,
                 pinned, offsets);
    return;
  }
  for (std::int32_t b = 0; b < batch; ++b) {
    const EvalResult r = EvalCddMachines(
        n, m, d, seqs + static_cast<std::size_t>(b) * stride,
        splits + static_cast<std::size_t>(b) * (m - 1), proc, alpha, beta);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

/// Batched late-work evaluation of m-machine rows (layout as above;
/// m == 1 rows need no splits array).
inline void EvalEarlyWorkBatch(std::int32_t n, std::int32_t m, Time d,
                               const JobId* seqs, std::int32_t stride,
                               const std::int32_t* splits,
                               std::int32_t batch, const Time* proc,
                               Cost* costs, std::int32_t* pinned = nullptr,
                               Time* offsets = nullptr) noexcept {
  for (std::int32_t b = 0; b < batch; ++b) {
    const EvalResult r = EvalEarlyWork(
        n, m, d, seqs + static_cast<std::size_t>(b) * stride,
        m > 1 ? splits + static_cast<std::size_t>(b) * (m - 1) : nullptr,
        proc);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

/// Batched UCDDCP evaluation over a stride-aligned SoA pool; see
/// EvalCddBatch for the layout contract.  The instance sums are computed
/// once per call.
inline void EvalUcddcpBatch(std::int32_t n, Time d, const JobId* seqs,
                            std::int32_t stride, std::int32_t batch,
                            const Time* proc, const Time* minproc,
                            const Cost* alpha, const Cost* beta,
                            const Cost* gamma, Cost* costs,
                            std::int32_t* pinned = nullptr,
                            Time* offsets = nullptr) noexcept {
  const UcddcpSums s = SumUcddcp(n, proc, alpha);
  const bool one_pass = UcddcpOnePassApplies(d, s);
  for (std::int32_t b = 0; b < batch; ++b) {
    const JobId* seq = seqs + static_cast<std::size_t>(b) * stride;
    const EvalResult r =
        one_pass ? EvalUcddcpOnePass(n, d, seq, proc, minproc, alpha, beta,
                                     gamma, s.alpha)
                 : EvalUcddcp(n, d, seq, proc, minproc, alpha, beta, gamma);
    costs[b] = r.cost;
    if (pinned != nullptr) pinned[b] = r.pinned;
    if (offsets != nullptr) offsets[b] = r.offset;
  }
}

}  // namespace cdd::raw
