#pragma once
/// \file service.hpp
/// \brief SolverService — the request-driven front of the solver library.
///
/// Composition (one instance of each, wired in the constructor):
///
///   Submit() -> [cache fast path] -> [single-flight join]
///                 -> [admission control] -> JobQueue (bounded, rejecting)
///                     -> WorkerPool -> EngineRegistry
///                          -> ResultCache / InflightTable / Metrics
///
/// Invariants the tests pin down:
///  * No accepted request is ever lost: every future returned by Submit()
///    resolves — solved, cache-served, coalesced, deadline-expired,
///    failed, shed, or answered kShutdown during CancelAll().
///  * Backpressure is synchronous: a full queue rejects at Submit() time
///    with kRejectedQueueFull (kShuttingDown once the queue is closed);
///    nothing is silently queued beyond capacity.
///  * Single-flight: concurrent requests with the same canonical key
///    share one solve — duplicates attach as waiters to the in-flight
///    leader and receive its bit-identical result.  A leader that cannot
///    deliver a full-budget result re-elects a waiter instead of handing
///    out a truncated one.
///  * Overload sheds lowest-priority work first: past the high watermark
///    an arrival either displaces strictly-lower-priority queued work
///    (which is answered kShedOverload) or is itself shed.
///  * Deadlines are honored cooperatively: the worker arms a per-request
///    StopSource and the engine's search loop truncates; a request whose
///    deadline passed while queued is answered without solving at all.
///  * Only complete (unstopped) runs enter the result cache, so a cache
///    hit is bit-identical to a fresh full solve of the same request.
///  * "host" runs are clamped to 1 thread per worker — legal because
///    RunHostEnsembleSa is thread-count invariant (documented contract) —
///    so a w-worker service never oversubscribes the machine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pool_allocator.hpp"
#include "core/stop_token.hpp"
#include "serve/engine_registry.hpp"
#include "serve/inflight.hpp"
#include "serve/job_queue.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/result_cache.hpp"
#include "serve/worker_pool.hpp"

namespace cdd::serve {

/// Admission-control watermarks on queue depth (see ServiceConfig).
struct Watermarks {
  std::size_t low = 0;
  std::size_t high = 0;
};

/// Parses "LOW:HIGH" absolute queue depths: two decimal integers with no
/// sign, space or trailing text, and HIGH > 0.  Returns false (and leaves
/// \p out untouched) on anything else.  Shared by CDD_SERVE_WATERMARKS
/// and `sched_serve --watermarks`.
bool ParseWatermarks(std::string_view text, Watermarks* out);

/// Sizing of one SolverService.
struct ServiceConfig {
  unsigned workers = 4;             ///< solver threads
  std::size_t queue_capacity = 256; ///< admission bound (backpressure)
  std::size_t cache_capacity = 4096;///< result-cache entries; 0 disables
  std::size_t cache_shards = 8;
  /// When non-empty, every *completed* (full-budget, uncached) solve
  /// appends one JSONL run manifest here — the record tools/sched_replay
  /// re-executes and verifies bit-identically.  Truncated and failed runs
  /// are never recorded: a manifest always describes a reproducible run.
  /// Each record is flushed as it is written; a path that cannot be
  /// opened makes the constructor throw std::invalid_argument.
  std::string manifest_path{};
  /// Candidate-pool placement for request-scoped pools ("host" or
  /// "device").  Empty defers to CDD_POOL_BACKEND (then "host");
  /// an unknown name makes the constructor throw std::invalid_argument.
  /// Placement never changes results — only the modeled transfer cost.
  std::string pool_backend{};
  /// Block-execution backend for the private simulated devices the device
  /// engines run on ("serial", "host-parallel"); see
  /// sim::exec::ActiveExecBackend.  Empty defers to CDD_EXEC_BACKEND —
  /// with one guard: a service whose worker pool alone already covers the
  /// hardware clamps the env-derived host-parallel default back to serial
  /// (each request would only contend with its siblings for the same
  /// cores), counted in the `exec_clamped` metric.  An explicit setting
  /// here is honored as-is; an unknown name makes the constructor throw
  /// std::invalid_argument.  Execution placement never changes results.
  std::string exec_backend{};
  /// Test seam: when non-null, overrides `pool_backend` entirely and every
  /// request-scoped pool allocates through this allocator (e.g. an
  /// always-failing one to exercise the host-fallback path).  Must outlive
  /// the service.  Not owned.
  core::PoolAllocator* pool_allocator = nullptr;
  /// Engine-native Step units (SA iterations, DPSO generations, BnB
  /// nodes, race rounds) a worker runs between preemption checks.  Zero
  /// (the default) runs each solve in one Step, to completion
  /// uninterrupted.  When set, a worker pauses at each slice
  /// boundary and, if a strictly higher-priority request is queued,
  /// solves it first (nested, bounded depth) before resuming — the paused
  /// engine's state simply stays live on the worker's stack, which is
  /// exactly what the resumable-engine refactor buys the service.
  /// Slicing never changes results (bit-identical split-run guarantee);
  /// it only reorders wall-clock time between requests.
  std::uint64_t preempt_slice = 0;
  /// Nested-preemption cap: a worker's stack holds at most this many
  /// paused solves.  At the cap, a queued higher-priority job waits for a
  /// free worker like everyone else — observable through the
  /// `preempt_depth_limited` counter and `serve.preempt_depth_limited`
  /// trace instant, so starvation at the cap is never silent.
  unsigned max_preempt_depth = 4;
  /// Admission-control watermarks on queue depth.  0/0 (the default)
  /// defers to CDD_SERVE_WATERMARKS ("LOW:HIGH", see ParseWatermarks); when
  /// that is unset too, admission control is off and the queue behaves
  /// exactly as before (full -> kRejectedQueueFull).  With a high
  /// watermark:
  ///  * depth >= high: overload.  An arrival displaces the newest
  ///    strictly-lower-priority queued job (answered kShedOverload) or,
  ///    when it is itself lowest, is shed directly.
  ///  * depth >= low: caution.  Requests whose deadline is provably
  ///    unattainable (predicted wait from the solve-latency histogram
  ///    already exceeds it) are rejected kRejectedDeadlineInfeasible, and
  ///    tenants past their fair share (capacity / active tenants) are
  ///    shed kShedOverload.
  /// Both are clamped to the queue capacity (low additionally to high).
  std::size_t shed_low_watermark = 0;
  std::size_t shed_high_watermark = 0;
};

/// Concurrent solve service over the engine registry.  Thread-safe:
/// Submit() may be called from any number of client threads.
class SolverService {
 public:
  explicit SolverService(
      ServiceConfig config,
      const EngineRegistry& registry = EngineRegistry::Default());

  /// Drains and joins (Shutdown()).
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Push-style completion hook: invoked exactly once with the final
  /// response, from whatever thread produced it (a worker, or the
  /// submitting thread for synchronous rejections and cache hits).  Must
  /// not block — the socket front-end uses it to enqueue the wire reply.
  using ResponseCallback = std::function<void(const SolveResponse&)>;

  /// Submits one request.  Always returns a valid future; rejections
  /// (queue full, unknown engine, shed) and cache hits resolve it
  /// immediately.
  std::future<SolveResponse> Submit(SolveRequest request) {
    return Submit(std::move(request), nullptr);
  }

  /// Submit with a completion callback (the future remains valid too and
  /// resolves after the callback runs).
  std::future<SolveResponse> Submit(SolveRequest request,
                                    ResponseCallback on_done);

  /// Graceful shutdown: stop admitting, let the workers drain every queued
  /// request to completion, join.  Idempotent.
  void Shutdown();

  /// Fast shutdown: stop admitting, cancel the in-flight runs through
  /// their stop tokens (best effort) and answer the still-queued requests
  /// with kShutdown, join.  Every future still resolves.  Idempotent.
  void CancelAll();

  MetricsRegistry& metrics() { return metrics_; }
  const ResultCache& cache() const { return cache_; }
  unsigned workers() const { return config_.workers; }
  /// Placement of request-scoped pools after config/env resolution (what
  /// pools are *requested* on; individual pools may still fall back).
  core::PoolBackend pool_backend() const {
    return pool_allocator_->backend();
  }
  /// Execution backend the device engines' private devices run with,
  /// after config/env resolution and the oversubscription guard.
  sim::exec::ExecBackend exec_backend() const { return exec_backend_; }

 private:
  struct Job {
    SolveRequest request;
    const EngineFactory* factory = nullptr;
    std::uint64_t key = 0;
    std::chrono::steady_clock::time_point admitted;
    std::promise<SolveResponse> promise;
    ResponseCallback on_done;
  };

  /// \p depth counts nested preemptions on this worker's stack (a
  /// preempting job can itself be preempted, up to a fixed cap).
  void Process(Job&& job, unsigned slot, unsigned depth = 0);

  /// Invokes the callback (if any) and fulfills the promise — the single
  /// funnel every response of an accepted or shed job goes through.
  static void Deliver(Job& job, SolveResponse&& response);

  /// Leader finished with a full-budget (or cached) result: answer every
  /// waiter of \p key with a bit-identical copy and end the flight.
  void ResolveInflightSuccess(std::uint64_t key,
                              const SolveResponse& leader);

  /// Leader could not produce a full result (deadline, shutdown, shed,
  /// failure): promote the oldest waiter to leader and re-enqueue it; any
  /// waiter stranded by a closed or full queue is answered terminally.
  void ResolveInflightFailure(std::uint64_t key);

  /// Answers a queued job displaced by overload shedding, including its
  /// own flight's failure resolution.
  void ShedQueuedJob(Job&& victim);

  /// Admission bookkeeping for per-tenant fair share.
  void TenantEnqueued(const std::string& tenant);
  void TenantDequeued(const std::string& tenant);

  ServiceConfig config_;
  const EngineRegistry& registry_;
  ResultCache cache_;
  MetricsRegistry metrics_;

  // Hot-path metric handles, resolved once in the constructor.
  Counter* submitted_;
  Counter* enqueued_;
  Counter* rejected_queue_full_;
  Counter* rejected_shutdown_;       ///< pushes refused by a *closed* queue
  Counter* rejected_unknown_engine_;
  Counter* rejected_invalid_instance_;
  Counter* rejected_deadline_infeasible_;  ///< admission-time deadline math
  Counter* shed_overload_;           ///< requests dropped past the high mark
  Counter* shed_tenant_overquota_;   ///< fair-share sheds (subset of above)
  Counter* coalesced_joins_;         ///< duplicates attached to a flight
  Counter* coalesce_reelected_;      ///< waiters promoted to leader
  Counter* preempt_depth_limited_;   ///< preemptions skipped at the cap
  Counter* cache_hits_;
  Counter* completed_;
  Counter* deadline_expired_;
  Counter* cancelled_;
  Counter* failed_;
  Counter* pool_handoffs_;         ///< request pools lent to an engine
  Counter* pool_staging_copies_;   ///< modeled copies a lent pool required
  Counter* pool_alloc_fallbacks_;  ///< pools that fell back to host memory
  Counter* pool_reuse_hits_;       ///< device pools served from the free-list
  Counter* exec_clamped_;          ///< host-parallel defaults clamped to serial
  Counter* preemptions_;           ///< solves paused for higher-priority work
  LatencyHistogram* queue_ms_;
  LatencyHistogram* solve_ms_;

  /// Allocator behind every request-scoped pool, resolved once from
  /// ServiceConfig::pool_allocator / pool_backend / CDD_POOL_BACKEND.
  core::PoolAllocator* pool_allocator_;

  /// Exec backend for device engines, resolved once in the constructor
  /// (ServiceConfig::exec_backend / CDD_EXEC_BACKEND + the guard).
  sim::exec::ExecBackend exec_backend_;

  /// Free-list of idle device-resident request pools, keyed by shape
  /// (n, capacity; stride derives from n).  Device pools are the ones
  /// worth caching — host-side pools are a cheap aligned allocation, but
  /// a device pool models a resident GPU block that repeated same-shape
  /// solves can reuse without reallocating.  Bounded; see Process().
  std::mutex idle_pools_mutex_;
  std::vector<CandidatePool> idle_pools_;

  /// Run-manifest recording (ServiceConfig::manifest_path); the mutex
  /// serializes appends so lines from concurrent workers never interleave.
  std::mutex manifest_mutex_;
  std::ofstream manifest_;

  /// Single-flight dedup of concurrent identical requests.
  InflightTable inflight_;

  /// Per-tenant queued-request counts for the fair-share admission check.
  std::mutex tenant_mutex_;
  std::unordered_map<std::string, std::size_t> tenant_queued_;

  JobQueue<Job> queue_;
  /// One reusable StopSource per worker slot so CancelAll() can reach the
  /// runs currently executing.  unique_ptr: StopSource is not movable.
  std::vector<std::unique_ptr<StopSource>> slot_stops_;
  std::atomic<bool> aborting_{false};
  std::atomic<bool> stopped_{false};
  std::unique_ptr<WorkerPool<Job>> pool_;  // constructed last, joins first
};

}  // namespace cdd::serve
