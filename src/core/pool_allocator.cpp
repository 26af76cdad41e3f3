#include "core/pool_allocator.hpp"

#include <new>

#include "core/env_config.hpp"

namespace cdd::core {

namespace {

/// Both placements: 64-byte-aligned host memory (the simulator has no
/// other kind) tagged with the backend whose transfer costs it models.
class AlignedAllocator final : public PoolAllocator {
 public:
  constexpr explicit AlignedAllocator(PoolBackend backend)
      : backend_(backend) {}

  void* Allocate(std::size_t bytes, std::size_t alignment) override {
    void* ptr =
        ::operator new(bytes, std::align_val_t(alignment), std::nothrow);
    if (ptr == nullptr) {
      GlobalPoolStats().failures.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    GlobalPoolStats().allocations.fetch_add(1, std::memory_order_relaxed);
    GlobalPoolStats().bytes.fetch_add(bytes, std::memory_order_relaxed);
    return ptr;
  }
  void Deallocate(void* ptr, std::size_t) override {
    ::operator delete(ptr, std::align_val_t(64));
  }
  PoolBackend backend() const override { return backend_; }

 private:
  const PoolBackend backend_;
};

}  // namespace

std::string_view ToString(PoolBackend backend) {
  return backend == PoolBackend::kDevice ? "device" : "host";
}

bool ParsePoolBackend(std::string_view name, PoolBackend* out) {
  if (name == "host") {
    *out = PoolBackend::kHost;
  } else if (name == "device") {
    *out = PoolBackend::kDevice;
  } else {
    return false;
  }
  return true;
}

PoolTransferCost TransferCost(PoolBackend backend) {
  if (backend == PoolBackend::kDevice) {
    // Resident on the device: kernels read it in place; the host pays.
    return {/*host_staging=*/true, /*device_staging=*/false};
  }
  // Pageable memory: kernels cannot DMA it directly, so device access
  // stages through a bounce buffer; host access is free.
  return {/*host_staging=*/false, /*device_staging=*/true};
}

PoolAllocStats& GlobalPoolStats() {
  static PoolAllocStats stats;
  return stats;
}

PoolAllocator& PoolAllocatorFor(PoolBackend backend) {
  static AlignedAllocator host(PoolBackend::kHost);
  static AlignedAllocator device(PoolBackend::kDevice);
  return backend == PoolBackend::kDevice ? device : host;
}

PoolBackend ActivePoolBackend() {
  static const PoolBackend backend =
      ReadEnv(kPoolBackendEnv, ParsePoolBackend).value_or(PoolBackend::kHost);
  return backend;
}

PoolAllocator& ActivePoolAllocator() {
  return PoolAllocatorFor(ActivePoolBackend());
}

}  // namespace cdd::core
