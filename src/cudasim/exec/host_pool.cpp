#include "cudasim/exec/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/tracer.hpp"

namespace cdd::sim::exec {

namespace {

/// One published ParallelFor call.  Lives on the caller's stack; the
/// caller removes it from the active list before returning, so workers
/// never hold a pointer past the call.
struct LaunchJob {
  std::size_t blocks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;

  /// Next block index to claim.  One shared cursor, chunk = 1: block
  /// bodies are orders of magnitude heavier than one fetch_add, a single
  /// hot cacheline is fine at pool scale, and claiming one block at a
  /// time already balances launches whose blocks differ in cost.
  std::atomic<std::size_t> next{0};

  /// True while unclaimed blocks remain.  This is the join guard the
  /// pool checks before a worker attaches: it can only go false after
  /// the point at which the last participant to claim work is still
  /// attached, so observing true under the registry mutex means the
  /// frame is alive (see TryAcquireLocked).
  bool HasWork() const {
    return next.load(std::memory_order_relaxed) < blocks;
  }
  /// Threads currently inside RunChunks (the caller plus every pool
  /// worker that acquired a slot).  The launch is complete only when this
  /// reaches zero: a participant leaves only after `next` is exhausted
  /// AND all of its own blocks finished, so zero participants means every
  /// block ran and nobody holds a pointer into this stack frame anymore.
  std::atomic<int> participants{1};
  /// Pool workers still allowed to join (the participation cap minus the
  /// caller).  Decremented once per joining worker, never returned: the
  /// cap bounds total participants, which bounds concurrency.
  std::atomic<int> open_slots{0};
  std::atomic<bool> failed{false};

  std::mutex error_mutex;
  std::size_t first_error_block = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool completed = false;
};

/// Claims indices from \p job until exhausted.  Once any block fails,
/// blocks claimed later are skipped.
void RunChunks(LaunchJob& job) {
  CDD_TRACE_SPAN("exec.worker");
  for (;;) {
    const std::size_t b = job.next.fetch_add(1, std::memory_order_relaxed);
    if (b >= job.blocks) return;
    if (job.failed.load(std::memory_order_relaxed)) continue;
    try {
      (*job.fn)(b);
    } catch (...) {
      const std::scoped_lock lock(job.error_mutex);
      // Keep the failure with the lowest block index so the rethrown
      // exception is independent of worker timing.
      if (b < job.first_error_block) {
        job.first_error_block = b;
        job.first_error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

/// Retires one participant.  The last one out signals the caller —
/// holding done_mutex across the notify so the condition_variable cannot
/// be destroyed mid-call — and the acq_rel RMW chain on `participants`
/// makes every participant's block writes visible to the caller.  After
/// the mutex is released here, this thread never touches \p job again;
/// only then can the caller's wait return and the frame be destroyed.
void Leave(LaunchJob& job) {
  if (job.participants.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::scoped_lock lock(job.done_mutex);
    job.completed = true;
    job.done_cv.notify_all();
  }
}

}  // namespace

struct HostThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::thread> threads;
  std::vector<LaunchJob*> active;
  bool stop = false;

  /// Grows the pool to \p target threads (mutex held by caller).
  void EnsureWorkersLocked(unsigned target) {
    while (threads.size() < target) {
      const unsigned id = static_cast<unsigned>(threads.size());
      threads.emplace_back([this, id] { WorkerLoop(id); });
    }
  }

  LaunchJob* TryAcquireLocked() {
    for (LaunchJob* job : active) {
      // The exhaustion check is the lifetime guard: the claim cursor only
      // advances, a participant leaves only after observing exhaustion,
      // and the caller destroys the job only after every participant
      // left.  So while a job still has unclaimed blocks (checked here,
      // under the registry mutex, before the caller could have erased
      // it) joining it keeps participants > 0 and the frame alive.
      if (!job->HasWork()) {
        continue;  // exhausted, caller is about to remove it
      }
      int slots = job->open_slots.load(std::memory_order_relaxed);
      while (slots > 0) {
        if (job->open_slots.compare_exchange_weak(
                slots, slots - 1, std::memory_order_relaxed)) {
          job->participants.fetch_add(1, std::memory_order_relaxed);
          return job;
        }
      }
    }
    return nullptr;
  }

  void WorkerLoop(unsigned id) {
    // Label this thread's event ring so exports distinguish the pool's
    // wall-clock tracks from the modeled-time "sim-device" track.
    trace::SetThreadLabel("exec-worker-" + std::to_string(id));
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (stop) return;
      if (LaunchJob* job = TryAcquireLocked()) {
        lock.unlock();
        RunChunks(*job);
        Leave(*job);
        lock.lock();
        continue;
      }
      cv.wait(lock);
    }
  }
};

HostThreadPool& HostThreadPool::Instance() {
  static HostThreadPool pool;
  return pool;
}

HostThreadPool::HostThreadPool() : impl_(new Impl()) {}

HostThreadPool::~HostThreadPool() {
  {
    const std::scoped_lock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& thread : impl_->threads) thread.join();
  delete impl_;
}

unsigned HostThreadPool::workers() const {
  const std::scoped_lock lock(impl_->mutex);
  return static_cast<unsigned>(impl_->threads.size());
}

void HostThreadPool::ParallelFor(
    std::size_t blocks, unsigned max_workers,
    const std::function<void(std::size_t)>& fn) {
  if (blocks == 0) return;
  if (blocks < 2 || max_workers < 2) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }

  LaunchJob job;
  job.blocks = blocks;
  job.fn = &fn;
  // The caller is one participant; never more slots than useful blocks.
  const std::size_t extra = std::min<std::size_t>(max_workers - 1,
                                                  blocks - 1);
  job.open_slots.store(static_cast<int>(extra),
                       std::memory_order_relaxed);
  {
    const std::scoped_lock lock(impl_->mutex);
    // The pool grows to the largest cap ever requested (explicit
    // set_worker_threads calls may exceed the hardware default) and
    // keeps those threads for every later launch.
    impl_->EnsureWorkersLocked(static_cast<unsigned>(extra));
    impl_->active.push_back(&job);
  }
  impl_->cv.notify_all();

  RunChunks(job);  // the caller always participates
  Leave(job);

  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&job] { return job.completed; });
  }
  {
    const std::scoped_lock lock(impl_->mutex);
    std::erase(impl_->active, &job);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace cdd::sim::exec
