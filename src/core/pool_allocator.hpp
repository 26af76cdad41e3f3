#pragma once
/// \file pool_allocator.hpp
/// \brief Host and device placements for candidate pools.
///
/// Every CandidatePool borrows its storage block from a PoolAllocator
/// instead of owning std::vectors, so the *placement* of the evaluation
/// hot path's working set is a runtime decision made once per process (or
/// per SolverService) rather than a compile-time accident:
///
///   kHost    64-byte-aligned pageable host memory (the default; what the
///            plain std::vector pools of PR 4/5 effectively were).
///   kDevice  simulated device-resident storage: pools live "on the GPU".
///            Kernels (par::detail::LaunchFitness) touch the rows for
///            free; *host* access is what requires a staging copy now.
///
/// Backend selection mirrors the cpu_features idiom: the
/// CDD_POOL_BACKEND environment variable ("host" | "device") is resolved
/// exactly once per process into ActivePoolBackend(); any other value is
/// an error that names the variable (core::ReadEnv).
/// serve::ServiceConfig::pool_backend overrides the environment per
/// service instance.
///
/// Both backends hand out the same memory — one aligned allocator that
/// carries its tag — so the engine results are bit-identical across
/// backends by construction (the goldens replay under every
/// CDD_POOL_BACKEND value; CI pins this).  What changes is the
/// *transfer-cost model* (TransferCost below): which side of a
/// host/device handoff pays a staging copy.
///
/// Thread-safety: allocators returned by PoolAllocatorFor() are
/// process-lifetime singletons whose Allocate/Deallocate are safe to call
/// from any thread.  GlobalPoolStats() counters are relaxed atomics.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cdd::core {

/// Where a candidate pool's storage lives (see the file comment).
enum class PoolBackend : std::uint8_t {
  kHost = 0,  ///< pageable aligned host memory (default)
  kDevice,    ///< simulated device-resident memory
};

/// Stable lower-case name ("host" | "device").
std::string_view ToString(PoolBackend backend);

/// Parses a backend name; returns false (and leaves \p out untouched) on
/// anything else.
bool ParsePoolBackend(std::string_view name, PoolBackend* out);

/// What a handoff of a pool with a given backend costs.  "Staging" means
/// an explicit bounce copy must be modeled (and metered as an H2D/D2H
/// event) before the accessing side can read or write the rows; a false
/// flag is the zero-copy case.
struct PoolTransferCost {
  /// Host (CPU engine) access requires a staging copy — true only for
  /// device-resident pools.
  bool host_staging = false;
  /// Device (simulated kernel) access requires an H2D staging copy —
  /// true only for pageable host memory.
  bool device_staging = false;
};

/// The transfer-cost model, keyed by backend.
PoolTransferCost TransferCost(PoolBackend backend);

/// Process-wide allocator telemetry (relaxed atomics; monotonic).
struct PoolAllocStats {
  std::atomic<std::uint64_t> allocations{0};  ///< successful Allocate calls
  std::atomic<std::uint64_t> bytes{0};        ///< total bytes handed out
  std::atomic<std::uint64_t> failures{0};     ///< Allocate calls that returned nullptr
  /// CandidatePool constructions that fell back to the host backend after
  /// their requested allocator failed (see CandidatePool's fallback rule).
  std::atomic<std::uint64_t> fallbacks{0};
};

PoolAllocStats& GlobalPoolStats();

/// Abstract pool memory source.  Implementations must be thread-safe and
/// must return either a block of at least \p bytes aligned to
/// \p alignment, or nullptr (never throw) — callers decide the fallback
/// policy.  \p alignment must be a power of two.
class PoolAllocator {
 public:
  virtual ~PoolAllocator() = default;

  /// Returns nullptr on failure (never throws).
  virtual void* Allocate(std::size_t bytes, std::size_t alignment) = 0;

  /// \p bytes must equal the matching Allocate request.
  virtual void Deallocate(void* ptr, std::size_t bytes) = 0;

  virtual PoolBackend backend() const = 0;

  std::string_view name() const { return ToString(backend()); }
};

/// The process-lifetime singleton allocator for \p backend.
PoolAllocator& PoolAllocatorFor(PoolBackend backend);

/// The backend every defaulted CandidatePool uses, resolved once per
/// process: CDD_POOL_BACKEND when set, else kHost.  Throws
/// std::invalid_argument when the variable holds an unknown name.
PoolBackend ActivePoolBackend();

/// Shorthand for PoolAllocatorFor(ActivePoolBackend()).
PoolAllocator& ActivePoolAllocator();

}  // namespace cdd::core
