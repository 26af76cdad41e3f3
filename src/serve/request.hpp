#pragma once
/// \file request.hpp
/// \brief Request/response records of the solver service.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/instance.hpp"
#include "meta/result.hpp"
#include "serve/engine_registry.hpp"

namespace cdd::serve {

/// Terminal state of one submitted request.
enum class SolveStatus {
  kOk,                     ///< solved to its full budget
  kCacheHit,               ///< served from the result cache, no solve ran
  kDeadlineExpired,        ///< deadline hit; result is the best-so-far
  kRejectedQueueFull,      ///< backpressure: not admitted, try later
  kRejectedUnknownEngine,  ///< engine name not in the registry
  /// Instance violates a documented evaluator precondition (e.g. a
  /// restricted UCDDCP instance, d < sum P_i); see SolveResponse::error.
  kRejectedInvalidInstance,
  /// Admission control predicted the request cannot meet its own deadline
  /// (expected queue wait from the latency histograms already exceeds it),
  /// so it was rejected instead of admitted to expire in the queue.
  kRejectedDeadlineInfeasible,
  /// Load shedding: the service is past its high watermark (or a tenant
  /// is past its fair share) and this request was the lowest-priority
  /// work available to drop.  Also used for queued work displaced by a
  /// higher-priority arrival under overload.
  kShedOverload,
  /// Rejected at Submit() because the service is shutting down — the
  /// admission queue is closed, not full.  Distinct from kShutdown (which
  /// answers work that was already accepted) and from kRejectedQueueFull
  /// (backpressure on a live service, worth retrying).
  kShuttingDown,
  kShutdown,               ///< service stopped before/while solving it
  kFailed,                 ///< engine threw; see SolveResponse::error
};

/// Stable lower-case name ("ok", "cache_hit", ...), for logs and tables.
std::string_view ToString(SolveStatus status);

/// Inverse of ToString (wire protocol deserialization); nullopt for names
/// that are not a SolveStatus.
std::optional<SolveStatus> SolveStatusFromName(std::string_view name);

/// One solve request.  The id is an opaque caller-side correlation tag.
struct SolveRequest {
  std::uint64_t id = 0;
  Instance instance;
  std::string engine = "sa";
  EngineOptions options;
  /// Wall-clock budget measured from admission; zero means none.  An
  /// expired request still returns its best-so-far sequence, flagged
  /// kDeadlineExpired.
  std::chrono::milliseconds deadline{0};
  /// Scheduling priority: higher dequeues first (FIFO within a level);
  /// with ServiceConfig::preempt_slice set, a higher-priority arrival also
  /// preempts a running lower-priority solve at its next Step boundary.
  /// Under overload (queue past the high watermark) the lowest priority
  /// level is shed first.  Priority orders work but never changes any
  /// result, so it is deliberately NOT part of the cache key.
  int priority = 0;
  /// Fair-share accounting tag.  Above the low watermark, a tenant whose
  /// queued requests already exceed its share (capacity / active tenants)
  /// is shed before it can starve the others.  The empty string is a
  /// valid tenant (single-tenant deployments never trip the check).
  /// Accounting-only — never part of the cache key.
  std::string tenant;
};

/// Outcome delivered through the future returned by Submit().
struct SolveResponse {
  std::uint64_t id = 0;
  SolveStatus status = SolveStatus::kFailed;
  meta::RunResult result;
  double device_seconds = 0.0;  ///< modeled GPU time (parallel engines)
  double queue_ms = 0.0;        ///< admission -> dequeue
  double solve_ms = 0.0;        ///< engine run time
  bool from_cache = false;
  /// True when this response was coalesced onto another identical request
  /// already in flight (single-flight): the result is the winner's run,
  /// bit-identical to what a private solve would have produced.
  bool coalesced = false;
  std::string error;  ///< populated for kFailed

  /// True when `result` carries a usable sequence.
  bool ok() const {
    return status == SolveStatus::kOk || status == SolveStatus::kCacheHit ||
           (status == SolveStatus::kDeadlineExpired &&
            !result.best.empty());
  }
};

/// Rejection diagnostic for instances that violate an evaluator
/// precondition, or the empty string when the request is admissible.
/// Today this enforces the UCDDCP unrestricted-case precondition
/// d >= sum(P_i) (Awasthi et al.); the service and the cdd_solve tool both
/// gate on it so no engine ever evaluates under a violated precondition.
std::string ValidateRequestInstance(const Instance& instance);

/// Canonical 64-bit cache/dedup key: instance hash combined with the
/// engine name and every result-determining option (generations, seed,
/// ensemble geometry, chains, vshape, trajectory stride, race portfolio
/// and slice) — and nothing else, so requests that
/// must produce identical results share a key regardless of deadline,
/// priority, tenant, thread count or submission order.
std::uint64_t CacheKey(const SolveRequest& request);

}  // namespace cdd::serve
