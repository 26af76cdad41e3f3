#pragma once
/// \file host_pool.hpp
/// \brief The persistent host worker pool behind kHostParallel execution.
///
/// One pool per process, shared by every Device: worker threads are
/// started lazily on first use and live until exit, so the steady state
/// of a 768-chain engine (four launches per generation, thousands of
/// generations) never creates or joins a thread.  Sharing one pool is
/// also the oversubscription guard for the serve layer — any number of
/// concurrent devices (one per in-flight request) draw from the same
/// bounded set of worker threads instead of each spawning its own.
///
/// Scheduling is chunked round-robin over block indices: callers publish
/// a launch with an atomic next-block cursor, workers (and the calling
/// thread itself, which always participates so progress never depends
/// on pool availability) claim one index at a time with fetch_add until
/// the launch is exhausted.  Claiming single blocks also balances
/// launches whose blocks differ in cost: no thread is ever handed more
/// than the one block it is running.  Per-launch participation is capped
/// (Device worker-thread settings), and multiple launches may be in
/// flight concurrently — a worker that finds one launch saturated moves
/// to the next.
///
/// Determinism contract: ParallelFor promises only that fn(b) runs
/// exactly once for every b in [0, blocks) — in unspecified order, on
/// unspecified threads.  Callers that need ordered aggregation (the
/// Device's charge reduction) collect per-index results and reduce in
/// index order afterwards.  On failure the first error *by lowest block
/// index* is rethrown and remaining blocks are skipped, so the surfaced
/// exception does not depend on thread timing.

#include <cstddef>
#include <functional>

namespace cdd::sim::exec {

class HostThreadPool {
 public:
  /// The process-lifetime pool.  Threads start on first ParallelFor that
  /// needs them and are joined at static destruction.
  static HostThreadPool& Instance();

  /// Runs fn(b) exactly once for every b in [0, blocks), using at most
  /// \p max_workers concurrent threads (the caller counts as one; values
  /// < 2 or blocks < 2 degrade to an inline serial loop).  Blocks until
  /// every index has run.  Rethrows the failing fn's exception with the
  /// lowest block index; once any index fails, indices not yet started
  /// are skipped.
  void ParallelFor(std::size_t blocks, unsigned max_workers,
                   const std::function<void(std::size_t)>& fn);

  /// Worker threads currently alive (grows on demand, never shrinks).
  unsigned workers() const;

 private:
  HostThreadPool();
  ~HostThreadPool();
  HostThreadPool(const HostThreadPool&) = delete;
  HostThreadPool& operator=(const HostThreadPool&) = delete;

  struct Impl;
  Impl* impl_;  // raw: destroyed in ~HostThreadPool after joining workers
};

}  // namespace cdd::sim::exec
