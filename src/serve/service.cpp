#include "serve/service.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <stdexcept>
#include <optional>
#include <string>
#include <utility>

#include "core/env_config.hpp"
#include "serve/replay.hpp"
#include "trace/manifest.hpp"
#include "trace/tracer.hpp"

namespace cdd::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

core::PoolAllocator* ResolvePoolAllocator(const ServiceConfig& config) {
  if (config.pool_allocator != nullptr) return config.pool_allocator;
  if (config.pool_backend.empty()) return &core::ActivePoolAllocator();
  core::PoolBackend backend = core::PoolBackend::kHost;
  if (!core::ParsePoolBackend(config.pool_backend, &backend)) {
    throw std::invalid_argument("unknown pool backend '" +
                                config.pool_backend +
                                "' (expected host or device)");
  }
  return &core::PoolAllocatorFor(backend);
}

sim::exec::ExecBackend ResolveExecBackend(const ServiceConfig& config,
                                          Counter* clamped) {
  using sim::exec::ExecBackend;
  if (!config.exec_backend.empty()) {
    ExecBackend backend = ExecBackend::kSerial;
    if (!sim::exec::ParseExecBackend(config.exec_backend, &backend)) {
      throw std::invalid_argument("unknown exec backend '" +
                                  config.exec_backend +
                                  "' (expected serial or host-parallel)");
    }
    return backend;
  }
  ExecBackend backend = sim::exec::ActiveExecBackend();
  const unsigned workers = config.workers == 0 ? 1u : config.workers;
  if (backend == ExecBackend::kHostParallel && workers > 1 &&
      workers >= sim::exec::ActiveExecWorkers()) {
    // Oversubscription guard: this service's worker pool alone already
    // covers the machine, so fanning every request's blocks out over the
    // shared exec pool would only make sibling requests contend for the
    // same cores.  Results are backend-invariant, so clamping the
    // env-derived default to serial is free; an explicit
    // ServiceConfig::exec_backend is honored above without clamping.
    clamped->Increment();
    backend = ExecBackend::kSerial;
  }
  return backend;
}

}  // namespace

bool ParseWatermarks(std::string_view text, Watermarks* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return false;
  Watermarks parsed;
  const char* low_end = text.data() + colon;
  const auto [end, error] = std::from_chars(text.data(), low_end, parsed.low);
  if (error != std::errc{} || end != low_end ||
      !core::ParsePositive(text.substr(colon + 1), &parsed.high)) {
    return false;
  }
  *out = parsed;
  return true;
}

SolverService::SolverService(ServiceConfig config,
                             const EngineRegistry& registry)
    : config_(config),
      registry_(registry),
      cache_(config.cache_capacity, config.cache_shards),
      submitted_(&metrics_.counter("submitted")),
      enqueued_(&metrics_.counter("enqueued")),
      rejected_queue_full_(&metrics_.counter("rejected_queue_full")),
      rejected_shutdown_(&metrics_.counter("rejected_shutdown")),
      rejected_unknown_engine_(
          &metrics_.counter("rejected_unknown_engine")),
      rejected_invalid_instance_(
          &metrics_.counter("rejected_invalid_instance")),
      rejected_deadline_infeasible_(
          &metrics_.counter("rejected_deadline_infeasible")),
      shed_overload_(&metrics_.counter("shed_overload")),
      shed_tenant_overquota_(&metrics_.counter("shed_tenant_overquota")),
      coalesced_joins_(&metrics_.counter("coalesced_joins")),
      coalesce_reelected_(&metrics_.counter("coalesce_reelected")),
      preempt_depth_limited_(&metrics_.counter("preempt_depth_limited")),
      cache_hits_(&metrics_.counter("cache_hits")),
      completed_(&metrics_.counter("completed")),
      deadline_expired_(&metrics_.counter("deadline_expired")),
      cancelled_(&metrics_.counter("cancelled")),
      failed_(&metrics_.counter("failed")),
      pool_handoffs_(&metrics_.counter("pool_handoffs")),
      pool_staging_copies_(&metrics_.counter("pool_staging_copies")),
      pool_alloc_fallbacks_(&metrics_.counter("pool_alloc_fallbacks")),
      pool_reuse_hits_(&metrics_.counter("pool_reuse_hits")),
      exec_clamped_(&metrics_.counter("exec_clamped")),
      preemptions_(&metrics_.counter("preemptions")),
      queue_ms_(&metrics_.histogram("queue_ms")),
      solve_ms_(&metrics_.histogram("solve_ms")),
      pool_allocator_(ResolvePoolAllocator(config)),
      exec_backend_(ResolveExecBackend(config, exec_clamped_)),
      queue_(config.queue_capacity) {
  ResolveEnvironment();
  if (config_.workers == 0) config_.workers = 1;
  if (config_.shed_low_watermark == 0 && config_.shed_high_watermark == 0) {
    if (const std::optional<Watermarks> env =
            core::ReadEnv(core::kServeWatermarksEnv, ParseWatermarks)) {
      config_.shed_low_watermark = env->low;
      config_.shed_high_watermark = env->high;
    }
  }
  config_.shed_high_watermark =
      std::min(config_.shed_high_watermark, queue_.capacity());
  config_.shed_low_watermark =
      std::min(config_.shed_low_watermark, config_.shed_high_watermark);
  if (!config_.manifest_path.empty()) {
    manifest_.open(config_.manifest_path, std::ios::app);
    if (!manifest_.is_open()) {
      throw std::invalid_argument("SolverService: cannot open manifest '" +
                                  config_.manifest_path + "'");
    }
  }
  slot_stops_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    slot_stops_.push_back(std::make_unique<StopSource>());
  }
  pool_ = std::make_unique<WorkerPool<Job>>(
      queue_, config_.workers,
      [this](Job&& job, unsigned slot) { Process(std::move(job), slot); });
}

SolverService::~SolverService() { Shutdown(); }

std::future<SolveResponse> SolverService::Submit(SolveRequest request,
                                                 ResponseCallback on_done) {
  CDD_TRACE_SPAN("serve.submit");
  submitted_->Increment();

  SolveResponse response;
  response.id = request.id;

  // Synchronous answers (rejections, cache hits) go through the same
  // callback-then-promise funnel as worker-side deliveries.
  const auto answer = [&](SolveResponse&& done_response) {
    if (on_done) {
      try {
        on_done(done_response);
      } catch (...) {
      }
    }
    std::promise<SolveResponse> done;
    done.set_value(std::move(done_response));
    return done.get_future();
  };

  const EngineFactory* factory = registry_.FindFactory(request.engine);
  if (factory == nullptr) {
    rejected_unknown_engine_->Increment();
    response.status = SolveStatus::kRejectedUnknownEngine;
    response.error = "unknown engine '" + request.engine + "'";
    return answer(std::move(response));
  }

  // Evaluator preconditions are enforced at the boundary: an engine run
  // on a violating instance would either throw deep inside a worker or,
  // worse, return a cost computed under a violated precondition.
  if (std::string diagnostic = ValidateRequestInstance(request.instance);
      !diagnostic.empty()) {
    rejected_invalid_instance_->Increment();
    CDD_TRACE_INSTANT("serve.rejected_invalid_instance");
    response.status = SolveStatus::kRejectedInvalidInstance;
    response.error = std::move(diagnostic);
    return answer(std::move(response));
  }

  // Variant support is an admission decision too: an engine without the
  // multi-machine / early-work move set must reject here, not throw deep
  // inside a worker.
  if (std::string diagnostic =
          EngineSupportDiagnostic(request.engine, request.instance);
      !diagnostic.empty()) {
    rejected_invalid_instance_->Increment();
    CDD_TRACE_INSTANT("serve.rejected_invalid_instance");
    response.status = SolveStatus::kRejectedInvalidInstance;
    response.error = std::move(diagnostic);
    return answer(std::move(response));
  }

  // Race requests bake the effective (env-pinned) contender list and
  // slice into the options here, so the cache key, the run and the
  // manifest record all agree — and the record stays replayable without
  // the variables.
  if (request.engine == "race") {
    try {
      MaterializeRaceOptions(request.options);
    } catch (const std::invalid_argument& e) {
      failed_->Increment();
      response.status = SolveStatus::kFailed;
      response.error = e.what();
      return answer(std::move(response));
    }
  }

  const std::uint64_t key = CacheKey(request);

  // Fast path: an identical finished request is served synchronously, no
  // queue slot consumed.  The hit shares the cached entry; only the
  // response's own copy is made, outside any shard mutex.
  if (auto hit = cache_.Get(key)) {
    cache_hits_->Increment();
    CDD_TRACE_INSTANT("serve.cache_hit");
    response.status = SolveStatus::kCacheHit;
    response.result = hit->result;
    response.device_seconds = hit->device_seconds;
    response.from_cache = true;
    return answer(std::move(response));
  }

  // Single-flight: if an identical request is already queued or solving,
  // attach to it instead of consuming a queue slot on a duplicate solve.
  InflightWaiter waiter;
  waiter.request = std::move(request);
  waiter.admitted = Clock::now();
  waiter.on_done = std::move(on_done);
  std::future<SolveResponse> future = waiter.promise.get_future();
  if (inflight_.JoinOrLead(key, &waiter)) {
    coalesced_joins_->Increment();
    CDD_TRACE_INSTANT("serve.coalesce_join");
    return future;
  }

  // This request is the flight's leader; from here on, every exit path
  // must resolve the flight (success or failure) or hand the job to the
  // queue, whose consumer does.
  Job job;
  job.request = std::move(waiter.request);
  job.factory = factory;
  job.key = key;
  job.admitted = waiter.admitted;
  job.promise = std::move(waiter.promise);
  job.on_done = std::move(waiter.on_done);

  if (config_.shed_high_watermark > 0) {
    const std::size_t depth = queue_.size();
    if (depth >= config_.shed_low_watermark) {
      // Deadline feasibility: if the expected wait behind `depth` queued
      // solves (each taking the historical mean) already spends the
      // request's own budget, admitting it would only let it expire in
      // the queue — reject it now, while the caller can still retry
      // elsewhere.  No history (mean 0) admits: never reject on a guess.
      const double mean = solve_ms_->mean_ms();
      const double deadline_ms =
          static_cast<double>(job.request.deadline.count());
      if (deadline_ms > 0 && mean > 0) {
        const double predicted_wait = mean * static_cast<double>(depth) /
                                      static_cast<double>(config_.workers);
        if (predicted_wait + mean > deadline_ms) {
          rejected_deadline_infeasible_->Increment();
          CDD_TRACE_INSTANT("serve.rejected_deadline_infeasible");
          response.status = SolveStatus::kRejectedDeadlineInfeasible;
          response.error = "predicted wait exceeds deadline";
          Deliver(job, std::move(response));
          ResolveInflightFailure(key);
          return future;
        }
      }
      // Fair share: with multiple active tenants, one whose queued
      // requests already fill its slice of the queue is shed before it
      // can starve the rest.  Single-tenant deployments never trip this.
      std::size_t active = 0;
      std::size_t mine = 0;
      {
        const std::scoped_lock lock(tenant_mutex_);
        active = tenant_queued_.size();
        const auto it = tenant_queued_.find(job.request.tenant);
        if (it == tenant_queued_.end()) {
          ++active;  // this request would make the tenant active
        } else {
          mine = it->second;
        }
      }
      if (active > 1 &&
          mine >= std::max<std::size_t>(queue_.capacity() / active, 1)) {
        shed_tenant_overquota_->Increment();
        shed_overload_->Increment();
        CDD_TRACE_INSTANT("serve.shed_tenant_overquota");
        response.status = SolveStatus::kShedOverload;
        response.error = "tenant over fair share";
        Deliver(job, std::move(response));
        ResolveInflightFailure(key);
        return future;
      }
    }
    if (depth >= config_.shed_high_watermark) {
      // Overload: make room by displacing strictly-lower-priority queued
      // work, or — when this arrival is itself the lowest — shed it.
      if (auto victim = queue_.TryEvictLowest(job.request.priority)) {
        ShedQueuedJob(std::move(*victim));
      } else {
        shed_overload_->Increment();
        CDD_TRACE_INSTANT("serve.shed_overload");
        response.status = SolveStatus::kShedOverload;
        Deliver(job, std::move(response));
        ResolveInflightFailure(key);
        return future;
      }
    }
  }

  const int priority = job.request.priority;
  const std::string tenant = job.request.tenant;
  // Counted before the push: a worker may dequeue (and uncount) the job
  // before TryPush returns.  A refused push takes the count back.
  TenantEnqueued(tenant);
  const PushResult pushed = queue_.TryPush(std::move(job), priority);
  if (pushed != PushResult::kOk) TenantDequeued(tenant);
  switch (pushed) {
    case PushResult::kOk:
      enqueued_->Increment();
      CDD_TRACE_INSTANT("serve.enqueued");
      return future;
    case PushResult::kClosed:
      rejected_shutdown_->Increment();
      CDD_TRACE_INSTANT("serve.rejected_shutting_down");
      response.status = SolveStatus::kShuttingDown;
      break;
    case PushResult::kFull:
      rejected_queue_full_->Increment();
      CDD_TRACE_INSTANT("serve.rejected_queue_full");
      response.status = SolveStatus::kRejectedQueueFull;
      break;
  }
  // Refused push: the job (and its promise, already tied to `future`) is
  // still ours to answer, and the flight must not strand any waiter that
  // joined in the meantime.
  Deliver(job, std::move(response));
  ResolveInflightFailure(key);
  return future;
}

void SolverService::Process(Job&& job, unsigned slot, unsigned depth) {
  CDD_TRACE_SPAN("serve.process");
  const Clock::time_point dequeued = Clock::now();
  SolveResponse response;
  response.id = job.request.id;
  response.queue_ms = MsSince(job.admitted, dequeued);
  queue_ms_->Record(response.queue_ms);
  TenantDequeued(job.request.tenant);

  if (aborting_.load()) {
    response.status = SolveStatus::kShutdown;
    cancelled_->Increment();
    Deliver(job, std::move(response));
    ResolveInflightFailure(job.key);
    return;
  }

  // A duplicate may have completed while this request waited in the queue.
  if (auto hit = cache_.Get(job.key)) {
    cache_hits_->Increment();
    CDD_TRACE_INSTANT("serve.cache_hit");
    response.status = SolveStatus::kCacheHit;
    response.result = hit->result;
    response.device_seconds = hit->device_seconds;
    response.from_cache = true;
    ResolveInflightSuccess(job.key, response);
    Deliver(job, std::move(response));
    return;
  }

  StopSource& stop = *slot_stops_[slot];
  stop.Reset();
  const bool has_deadline = job.request.deadline.count() > 0;
  if (has_deadline) {
    const Clock::time_point deadline = job.admitted + job.request.deadline;
    if (dequeued >= deadline) {
      // Expired while queued: answer without burning a solve.  Waiters do
      // not inherit the expiry — one is re-elected to run for real.
      deadline_expired_->Increment();
      response.status = SolveStatus::kDeadlineExpired;
      Deliver(job, std::move(response));
      ResolveInflightFailure(job.key);
      return;
    }
    stop.SetDeadline(deadline);
  }
  if (aborting_.load()) stop.RequestStop();

  EngineOptions options = job.request.options;
  options.stop = stop.token();
  options.device = nullptr;  // each call gets a private simulated device
  // Safe because RunHostEnsembleSa is thread-count invariant: the pool
  // already provides the parallelism, each engine call stays serial.
  options.threads = 1;
  // Execution placement for that private device (resolved once in the
  // constructor; backend-invariant results, so this is never hashed).
  options.exec_backend = exec_backend_;

  // One request-scoped candidate pool, placed by the configured allocator
  // and lent zero-copy to engines that stage their generations in it.
  // Host-side placements hand the engine the very rows it perturbs; only
  // a placement on the far side of the modeled bus charges staging copies.
  std::optional<CandidatePool> request_pool;
  const std::size_t pool_rows = PoolCapacityHint(job.request.engine);
  if (pool_rows > 0 && job.request.instance.size() > 0) {
    if (pool_allocator_->backend() == core::PoolBackend::kDevice) {
      // Same-shape reuse: an idle device-resident pool of exactly this
      // shape (n fixes the stride, capacity fixes the block) skips the
      // device allocation entirely.  Exact capacity match keeps the
      // free-list from pinning oversized blocks to small requests.  Only
      // single-machine engines borrow, so every pool has one machine.
      const std::scoped_lock lock(idle_pools_mutex_);
      for (auto it = idle_pools_.begin(); it != idle_pools_.end(); ++it) {
        if (it->n() == job.request.instance.size() &&
            it->capacity() == pool_rows) {
          it->Clear();
          request_pool.emplace(std::move(*it));
          idle_pools_.erase(it);
          pool_reuse_hits_->Increment();
          CDD_TRACE_INSTANT("serve.pool_reuse_hit");
          break;
        }
      }
    }
    if (!request_pool) {
      request_pool.emplace(job.request.instance.size(), pool_rows,
                           *pool_allocator_);
    }
    options.pool = &*request_pool;
    pool_handoffs_->Increment();
    if (request_pool->backend() != pool_allocator_->backend()) {
      // The requested backend could not deliver memory and CandidatePool
      // fell back to plain host pages (layout-identical, so the run's
      // results are unchanged — only the placement degraded).
      pool_alloc_fallbacks_->Increment();
      CDD_TRACE_INSTANT("serve.pool_alloc_fallback");
    }
    // Every borrowing engine runs on the host, so a device-resident pool
    // costs one modeled H2D (rows in) plus one D2H (costs out) per
    // handoff; a host placement is zero-copy.
    if (core::TransferCost(request_pool->backend()).host_staging) {
      pool_staging_copies_->Increment(2);
      CDD_TRACE_INSTANT("serve.pool_stage_h2d");
      CDD_TRACE_INSTANT("serve.pool_stage_d2h");
    }
  }

  const Clock::time_point solve_start = Clock::now();
  try {
    meta::EngineOutput run = [&] {
      CDD_TRACE_SPAN("serve.engine");
      // Without preemption the whole budget is one Step.  With it, the
      // engine runs preempt_slice native units at a time; between slices
      // it sits at a Step boundary, so a higher-priority arrival can
      // be solved *now* on this worker — the paused engine's state just
      // stays live on this stack frame — and the original solve resumes
      // bit-identically afterwards (the split-run guarantee of the
      // resumable-engine contract).
      const std::uint64_t slice = config_.preempt_slice == 0
                                      ? meta::kStepAll
                                      : config_.preempt_slice;
      auto engine = (*job.factory)(job.request.instance, options);
      while (engine->Step(slice) == meta::StepStatus::kRunning) {
        if (queue_.MaxPriority() <= job.request.priority) continue;
        if (depth >= config_.max_preempt_depth) {
          // Higher-priority work is waiting but this worker's stack is at
          // the nesting cap — count it so the starved wait is observable
          // instead of a silent `continue`.
          preempt_depth_limited_->Increment();
          CDD_TRACE_INSTANT("serve.preempt_depth_limited");
          continue;
        }
        if (auto higher = queue_.TryPopAbove(job.request.priority)) {
          preemptions_->Increment();
          CDD_TRACE_INSTANT("serve.preempt_begin");
          Process(std::move(*higher), slot, depth + 1);
          CDD_TRACE_INSTANT("serve.preempt_end");
          // The nested solve re-armed this slot's StopSource for its own
          // deadline; restore ours before resuming.  Cooperative stops
          // requested during the nested run (CancelAll) are re-applied.
          stop.Reset();
          if (has_deadline) {
            stop.SetDeadline(job.admitted + job.request.deadline);
          }
          if (aborting_.load()) stop.RequestStop();
        }
      }
      return engine->Finish();
    }();
    response.solve_ms = MsSince(solve_start, Clock::now());
    solve_ms_->Record(response.solve_ms);
    response.device_seconds = run.device_seconds;
    if (run.result.stopped) {
      if (aborting_.load()) {
        response.status = SolveStatus::kShutdown;
        cancelled_->Increment();
      } else {
        response.status = SolveStatus::kDeadlineExpired;
        deadline_expired_->Increment();
      }
      // Truncated searches never enter the cache: a later duplicate must
      // get the full-budget answer, not this one.
    } else {
      response.status = SolveStatus::kOk;
      completed_->Increment();
      // An unpinned race picks its portfolio through the adaptive bandit
      // prior, whose state evolves with every finished race — rerunning
      // the same request later may race different contenders.  Such runs
      // are answered but never cached or manifested: both artifacts
      // promise bit-identical reproduction.
      const bool reproducible = job.request.engine != "race" ||
                                RacePortfolioPinned(job.request.options);
      if (reproducible) {
        cache_.Put(job.key, {run.result, run.device_seconds});
        if (manifest_.is_open()) {
          // Only full-budget runs are recorded: a manifest is a promise
          // of bit-identical replay, which a truncated search cannot
          // make.
          const std::string line = trace::WriteManifestLine(
              MakeManifestRecord(job.request.instance, job.request.engine,
                                 job.request.options, run.result));
          // Flushed per record: the file is complete whenever a response
          // is, not only once the service shuts down.
          const std::scoped_lock lock(manifest_mutex_);
          manifest_ << line << '\n' << std::flush;
        }
      }
    }
    response.result = std::move(run.result);
  } catch (const std::exception& e) {
    response.solve_ms = MsSince(solve_start, Clock::now());
    response.status = SolveStatus::kFailed;
    response.error = e.what();
    failed_->Increment();
  }
  if (request_pool &&
      request_pool->backend() == core::PoolBackend::kDevice) {
    // The engine is done with the lent pool; park the device block for
    // the next same-shape request.  Bounded so a varied workload cannot
    // hoard device memory; excess pools just release normally.
    const std::scoped_lock lock(idle_pools_mutex_);
    if (idle_pools_.size() < 2 * config_.workers) {
      idle_pools_.push_back(std::move(*request_pool));
    }
  }
  if (response.status == SolveStatus::kOk) {
    // Full-budget result: the cache entry (when reproducible) is already
    // in place, so a duplicate racing with this removal hits the cache
    // instead of finding a dead flight.
    ResolveInflightSuccess(job.key, response);
    Deliver(job, std::move(response));
  } else {
    // Truncated, cancelled or failed: the waiters must not inherit it.
    Deliver(job, std::move(response));
    ResolveInflightFailure(job.key);
  }
}

void SolverService::Deliver(Job& job, SolveResponse&& response) {
  if (job.on_done) {
    try {
      job.on_done(response);
    } catch (...) {
      // A throwing callback must never strand the promise.
    }
  }
  job.promise.set_value(std::move(response));
}

void SolverService::ResolveInflightSuccess(std::uint64_t key,
                                           const SolveResponse& leader) {
  for (InflightWaiter& waiter : inflight_.Complete(key)) {
    SolveResponse response;
    response.id = waiter.request.id;
    response.status = leader.status == SolveStatus::kCacheHit
                          ? SolveStatus::kCacheHit
                          : SolveStatus::kOk;
    response.result = leader.result;
    response.device_seconds = leader.device_seconds;
    response.solve_ms = leader.solve_ms;
    response.queue_ms = MsSince(waiter.admitted, Clock::now());
    response.from_cache = leader.from_cache;
    response.coalesced = true;
    if (waiter.on_done) {
      try {
        waiter.on_done(response);
      } catch (...) {
      }
    }
    waiter.promise.set_value(std::move(response));
  }
}

void SolverService::ResolveInflightFailure(std::uint64_t key) {
  // Promote the oldest waiter to leader and give it a real queue slot; a
  // promoted waiter stranded by a closed or full queue is answered
  // terminally and the next one tried, so the flight always drains.
  while (auto waiter = inflight_.ReElect(key)) {
    Job job;
    job.request = std::move(waiter->request);
    job.factory = registry_.FindFactory(job.request.engine);
    job.key = key;
    job.admitted = waiter->admitted;  // its own deadline clock, not the
                                      // failed leader's
    job.promise = std::move(waiter->promise);
    job.on_done = std::move(waiter->on_done);
    const int priority = job.request.priority;
    const std::string tenant = job.request.tenant;
    TenantEnqueued(tenant);  // before the push, as in Submit
    const PushResult pushed = queue_.TryPush(std::move(job), priority);
    if (pushed != PushResult::kOk) TenantDequeued(tenant);
    switch (pushed) {
      case PushResult::kOk:
        coalesce_reelected_->Increment();
        enqueued_->Increment();
        CDD_TRACE_INSTANT("serve.coalesce_reelect");
        return;
      case PushResult::kClosed: {
        SolveResponse response;
        response.id = job.request.id;
        response.status = SolveStatus::kShutdown;
        cancelled_->Increment();
        Deliver(job, std::move(response));
        continue;
      }
      case PushResult::kFull: {
        SolveResponse response;
        response.id = job.request.id;
        response.status = SolveStatus::kShedOverload;
        shed_overload_->Increment();
        Deliver(job, std::move(response));
        continue;
      }
    }
  }
}

void SolverService::ShedQueuedJob(Job&& victim) {
  TenantDequeued(victim.request.tenant);
  shed_overload_->Increment();
  CDD_TRACE_INSTANT("serve.shed_overload");
  SolveResponse response;
  response.id = victim.request.id;
  response.status = SolveStatus::kShedOverload;
  response.queue_ms = MsSince(victim.admitted, Clock::now());
  Deliver(victim, std::move(response));
  ResolveInflightFailure(victim.key);
}

void SolverService::TenantEnqueued(const std::string& tenant) {
  const std::scoped_lock lock(tenant_mutex_);
  ++tenant_queued_[tenant];
}

void SolverService::TenantDequeued(const std::string& tenant) {
  const std::scoped_lock lock(tenant_mutex_);
  const auto it = tenant_queued_.find(tenant);
  if (it == tenant_queued_.end()) return;
  if (--it->second == 0) tenant_queued_.erase(it);
}

void SolverService::Shutdown() {
  stopped_.store(true);
  queue_.Close();
  pool_->Join();
}

void SolverService::CancelAll() {
  stopped_.store(true);
  aborting_.store(true);
  for (const auto& stop : slot_stops_) stop->RequestStop();
  queue_.Close();
  pool_->Join();
}

}  // namespace cdd::serve
