#pragma once
/// \file pool_allocator.hpp
/// \brief Multi-backend memory allocators for candidate pools.
///
/// Every CandidatePool borrows its storage block from a PoolAllocator
/// instead of owning std::vectors, so the *placement* of the evaluation
/// hot path's working set is a runtime decision made once per process (or
/// per SolverService) rather than a compile-time accident:
///
///   kHost    64-byte-aligned pageable host memory (the default; what the
///            plain std::vector pools of PR 4/5 effectively were).
///   kPinned  page-locked host memory: the allocation is mlock()ed
///            (best-effort; allocation still succeeds when RLIMIT_MEMLOCK
///            denies the lock) and registered with the simulator's
///            pinned-host registry, so the transfer-cost model treats it
///            as DMA-able — device access needs no staging copy.
///   kDevice  simulated device-resident storage: pools live "on the GPU".
///            Kernels (par::detail::LaunchFitness) touch the rows for
///            free; *host* access is what requires a staging copy now.
///   kNuma    NUMA-aware placement: numa_alloc_local() when libnuma is
///            present at build time (CDD_HAVE_NUMA), otherwise aligned
///            host memory whose pages are faulted in by the allocating
///            thread (first-touch — the same local-node placement policy
///            the kernel applies, minus the hard binding).
///
/// Backend selection mirrors the cpu_features idiom of PR 5: the
/// CDD_POOL_BACKEND environment variable ("host" | "pinned" | "device" |
/// "numa") is resolved exactly once per process into ActivePoolBackend();
/// unknown values fall back to kHost.  serve::ServiceConfig::pool_backend
/// overrides the environment per service instance.
///
/// All four backends hand out interchangeable memory: same 64-byte
/// alignment, same stride rules, same contents — so the engine results are
/// bit-identical across backends by construction (the golden manifest
/// replays under every CDD_POOL_BACKEND value; CI pins this).  What
/// changes is the *transfer-cost model* (TransferCost below): which side
/// of a host/device handoff pays a staging copy.
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
  kPinned,    ///< page-locked (mlock) host memory, DMA-able
  kDevice,    ///< simulated device-resident memory
  kNuma,      ///< NUMA first-touch local placement
};

/// Stable lower-case name ("host" | "pinned" | "device" | "numa").
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
  /// true for pageable host memory (kHost, kNuma); false for kPinned
  /// (DMA-able page-locked memory) and kDevice (already resident).
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
  /// Pinned allocations where mlock() was denied (allocation succeeded,
  /// pages are not actually locked; the backend tag is kept).
  std::atomic<std::uint64_t> pinned_degraded{0};
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

/// True when \p ptr lies inside a live pinned-host (kPinned) allocation —
/// the simulator's "cudaHostRegister" ledger.  The transfer paths use
/// this to decide whether host memory is DMA-able without a bounce copy.
bool IsPinnedHost(const void* ptr);

/// Bytes currently allocated by the simulated device-resident backend
/// (the "GPU global memory" footprint of kDevice pools).
std::size_t DeviceResidentBytes();

/// True when this binary was built against libnuma (kNuma allocates with
/// numa_alloc_local); false means kNuma uses the first-touch fallback.
bool NumaAvailable();

}  // namespace cdd::core
