#include "core/pool_allocator.hpp"

#include <map>
#include <mutex>
#include <new>

#include "core/env_config.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define CDD_HAVE_MLOCK 1
#else
#define CDD_HAVE_MLOCK 0
#endif

#if defined(CDD_HAVE_NUMA) && __has_include(<numa.h>)
#include <numa.h>
#else
#undef CDD_HAVE_NUMA
#endif

namespace cdd::core {

namespace {

void* AlignedAllocate(std::size_t bytes, std::size_t alignment) {
  return ::operator new(bytes, std::align_val_t(alignment),
                        std::nothrow);
}

void AlignedDeallocate(void* ptr, std::size_t alignment) {
  ::operator delete(ptr, std::align_val_t(alignment));
}

void CountAllocation(std::size_t bytes) {
  GlobalPoolStats().allocations.fetch_add(1, std::memory_order_relaxed);
  GlobalPoolStats().bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Live pinned-host ranges, keyed by base pointer (the simulator's
/// cudaHostRegister ledger).  Queries walk the map under a mutex — this
/// is a handoff-time check, never a per-candidate one.
class PinnedRegistry {
 public:
  void Add(const void* ptr, std::size_t bytes) {
    const std::scoped_lock lock(mutex_);
    ranges_[ptr] = bytes;
  }
  void Remove(const void* ptr) {
    const std::scoped_lock lock(mutex_);
    ranges_.erase(ptr);
  }
  bool Contains(const void* ptr) const {
    const std::scoped_lock lock(mutex_);
    auto it = ranges_.upper_bound(ptr);
    if (it == ranges_.begin()) return false;
    --it;
    const auto* base = static_cast<const char*>(it->first);
    return static_cast<const char*>(ptr) < base + it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<const void*, std::size_t> ranges_;
};

PinnedRegistry& Pinned() {
  static PinnedRegistry registry;
  return registry;
}

/// kHost: pageable 64-byte-aligned host memory.
class HostAllocator final : public PoolAllocator {
 public:
  void* Allocate(std::size_t bytes, std::size_t alignment) override {
    void* ptr = AlignedAllocate(bytes, alignment);
    if (ptr == nullptr) {
      GlobalPoolStats().failures.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    CountAllocation(bytes);
    return ptr;
  }
  void Deallocate(void* ptr, std::size_t) override {
    AlignedDeallocate(ptr, 64);
  }
  PoolBackend backend() const override { return PoolBackend::kHost; }
};

/// kPinned: host memory that is mlock()ed (best effort) and registered in
/// the pinned ledger so transfer paths treat it as DMA-able.
class PinnedHostAllocator final : public PoolAllocator {
 public:
  void* Allocate(std::size_t bytes, std::size_t alignment) override {
    void* ptr = AlignedAllocate(bytes, alignment);
    if (ptr == nullptr) {
      GlobalPoolStats().failures.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
#if CDD_HAVE_MLOCK
    if (bytes > 0 && ::mlock(ptr, bytes) != 0) {
      // RLIMIT_MEMLOCK or platform refusal: keep the allocation (the
      // backend contract is placement + transfer model, not a hard lock
      // guarantee) and record the degradation.
      GlobalPoolStats().pinned_degraded.fetch_add(
          1, std::memory_order_relaxed);
    }
#else
    GlobalPoolStats().pinned_degraded.fetch_add(1,
                                                std::memory_order_relaxed);
#endif
    Pinned().Add(ptr, bytes);
    CountAllocation(bytes);
    return ptr;
  }
  void Deallocate(void* ptr, std::size_t bytes) override {
    Pinned().Remove(ptr);
#if CDD_HAVE_MLOCK
    if (bytes > 0) ::munlock(ptr, bytes);
#else
    (void)bytes;
#endif
    AlignedDeallocate(ptr, 64);
  }
  PoolBackend backend() const override { return PoolBackend::kPinned; }
};

/// kDevice: simulated device-resident memory.  Physically host RAM (the
/// simulator has no other kind), but accounted in a device-footprint
/// counter and tagged so the transfer-cost model charges *host* access,
/// not kernel access.
class DeviceResidentAllocator final : public PoolAllocator {
 public:
  void* Allocate(std::size_t bytes, std::size_t alignment) override {
    void* ptr = AlignedAllocate(bytes, alignment);
    if (ptr == nullptr) {
      GlobalPoolStats().failures.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    resident_.fetch_add(bytes, std::memory_order_relaxed);
    CountAllocation(bytes);
    return ptr;
  }
  void Deallocate(void* ptr, std::size_t bytes) override {
    resident_.fetch_sub(bytes, std::memory_order_relaxed);
    AlignedDeallocate(ptr, 64);
  }
  PoolBackend backend() const override { return PoolBackend::kDevice; }

  std::size_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> resident_{0};
};

/// kNuma: numa_alloc_local() when libnuma is linked; otherwise aligned
/// host memory faulted in by the allocating thread (first-touch places
/// the pages on that thread's node under the kernel's default policy).
class NumaAllocator final : public PoolAllocator {
 public:
  void* Allocate(std::size_t bytes, std::size_t alignment) override {
#ifdef CDD_HAVE_NUMA
    if (numa_available() >= 0 && bytes > 0) {
      // numa_alloc_local returns page-aligned memory, which satisfies any
      // cache-line alignment request.
      void* ptr = numa_alloc_local(bytes);
      if (ptr == nullptr) {
        GlobalPoolStats().failures.fetch_add(1,
                                             std::memory_order_relaxed);
        return nullptr;
      }
      CountAllocation(bytes);
      return ptr;
    }
#endif
    void* ptr = AlignedAllocate(bytes, alignment);
    if (ptr == nullptr) {
      GlobalPoolStats().failures.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    // First-touch: fault every page in from this (the allocating) thread
    // so a NUMA kernel places them on the local node.  The pool zero-fills
    // its arrays right after construction anyway; touching here keeps the
    // placement guarantee even if that ever changes.
    auto* bytes_ptr = static_cast<volatile char*>(ptr);
    for (std::size_t off = 0; off < bytes; off += 4096) {
      bytes_ptr[off] = 0;
    }
    CountAllocation(bytes);
    return ptr;
  }
  void Deallocate(void* ptr, std::size_t bytes) override {
#ifdef CDD_HAVE_NUMA
    if (numa_available() >= 0 && bytes > 0) {
      numa_free(ptr, bytes);
      return;
    }
#endif
    (void)bytes;
    AlignedDeallocate(ptr, 64);
  }
  PoolBackend backend() const override { return PoolBackend::kNuma; }
};

DeviceResidentAllocator& DeviceSingleton() {
  static DeviceResidentAllocator allocator;
  return allocator;
}

}  // namespace

std::string_view ToString(PoolBackend backend) {
  switch (backend) {
    case PoolBackend::kHost:
      return "host";
    case PoolBackend::kPinned:
      return "pinned";
    case PoolBackend::kDevice:
      return "device";
    case PoolBackend::kNuma:
      return "numa";
  }
  return "host";
}

bool ParsePoolBackend(std::string_view name, PoolBackend* out) {
  if (name == "host") {
    *out = PoolBackend::kHost;
  } else if (name == "pinned") {
    *out = PoolBackend::kPinned;
  } else if (name == "device") {
    *out = PoolBackend::kDevice;
  } else if (name == "numa") {
    *out = PoolBackend::kNuma;
  } else {
    return false;
  }
  return true;
}

PoolTransferCost TransferCost(PoolBackend backend) {
  switch (backend) {
    case PoolBackend::kHost:
    case PoolBackend::kNuma:
      // Pageable memory: kernels cannot DMA it directly, so device access
      // stages through a bounce buffer; host access is free.
      return {/*host_staging=*/false, /*device_staging=*/true};
    case PoolBackend::kPinned:
      // Page-locked and registered: DMA-able from both sides.
      return {/*host_staging=*/false, /*device_staging=*/false};
    case PoolBackend::kDevice:
      // Resident on the device: kernels read it in place; the host pays.
      return {/*host_staging=*/true, /*device_staging=*/false};
  }
  return {};
}

PoolAllocStats& GlobalPoolStats() {
  static PoolAllocStats stats;
  return stats;
}

PoolAllocator& PoolAllocatorFor(PoolBackend backend) {
  static HostAllocator host;
  static PinnedHostAllocator pinned;
  static NumaAllocator numa;
  switch (backend) {
    case PoolBackend::kPinned:
      return pinned;
    case PoolBackend::kDevice:
      return DeviceSingleton();
    case PoolBackend::kNuma:
      return numa;
    case PoolBackend::kHost:
      break;
  }
  return host;
}

PoolBackend ActivePoolBackend() {
  static const PoolBackend backend =
      ReadEnv(kPoolBackendEnv, ParsePoolBackend).value_or(PoolBackend::kHost);
  return backend;
}

PoolAllocator& ActivePoolAllocator() {
  return PoolAllocatorFor(ActivePoolBackend());
}

bool IsPinnedHost(const void* ptr) { return Pinned().Contains(ptr); }

std::size_t DeviceResidentBytes() {
  return DeviceSingleton().resident_bytes();
}

bool NumaAvailable() {
#ifdef CDD_HAVE_NUMA
  return numa_available() >= 0;
#else
  return false;
#endif
}

}  // namespace cdd::core
