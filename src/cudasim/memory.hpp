#pragma once
/// \file memory.hpp
/// \brief Device memory: global buffers and constant-memory symbols.
///
/// DeviceBuffer<T> is the simulator's cudaMalloc + cudaMemcpy: allocation is
/// charged against the device's global memory, every explicit copy is
/// metered by the timing model and shows up in the profiler — this is how
/// the benches account for the "back-and-forth" transfers of Figure 9.
/// Kernels receive raw pointers via data(), exactly as CUDA kernels do.
/// The storage is an anonymous mapping of its own (zero-filled, returned to
/// the OS on release), so a buffer's host memory does not depend on the
/// allocation history of the process heap.
///
/// ConstantBuffer<T> models __constant__ symbols: small, host-writable,
/// kernel-readable, charged against the 64 KiB constant bank.  The paper
/// stores the due date d and the job count n there (Section VI).

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "cudasim/device.hpp"
#include "cudasim/error.hpp"

namespace cdd::sim {

/// RAII global-memory allocation of \p T elements on a Device, zero-filled.
template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device memory holds trivially copyable data only");

 public:
  /// Charges the device's global memory first (GpuError when exhausted),
  /// then maps the storage (std::bad_alloc when the host has no memory).
  DeviceBuffer(Device& device, std::size_t count)
      : device_(&device), size_(count) {
    device_->RegisterAlloc(bytes(), /*constant=*/false);
    if (size_ == 0) return;
    void* p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      device_->ReleaseAlloc(bytes(), /*constant=*/false);
      throw std::bad_alloc();
    }
    data_ = static_cast<T*>(p);
  }

  ~DeviceBuffer() { Release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& other) noexcept
      : device_(std::exchange(other.device_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = std::exchange(other.device_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  std::size_t bytes() const { return size_ * sizeof(T); }

  /// cudaMemcpyHostToDevice.  Throws GpuError on size mismatch.
  void CopyFromHost(std::span<const T> host) {
    if (host.size() != size_) {
      throw GpuError("CopyFromHost: size mismatch");
    }
    std::copy(host.begin(), host.end(), data_);
    device_->RecordH2D(bytes());
  }

  /// Partial H2D copy of \p host into the buffer starting at \p offset.
  void CopyFromHost(std::span<const T> host, std::size_t offset) {
    if (offset + host.size() > size_) {
      throw GpuError("CopyFromHost: range out of bounds");
    }
    std::copy(host.begin(), host.end(), data_ + offset);
    device_->RecordH2D(host.size() * sizeof(T));
  }

  /// cudaMemcpyDeviceToHost.  Throws GpuError on size mismatch.
  void CopyToHost(std::span<T> host) const {
    if (host.size() != size_) {
      throw GpuError("CopyToHost: size mismatch");
    }
    std::copy_n(data_, size_, host.begin());
    device_->RecordD2H(bytes());
  }

  /// Partial D2H copy from the buffer starting at \p offset.
  void CopyToHost(std::span<T> host, std::size_t offset) const {
    if (offset + host.size() > size_) {
      throw GpuError("CopyToHost: range out of bounds");
    }
    std::copy_n(data_ + offset, host.size(), host.begin());
    device_->RecordD2H(host.size() * sizeof(T));
  }

  /// cudaMemset-style fill (no transfer cost; device-side operation).
  void Fill(const T& value) { std::fill_n(data_, size_, value); }

  /// Device pointer, for kernels.
  T* data() { return data_; }
  const T* data() const { return data_; }

 private:
  void Release() noexcept {
    if (data_ != nullptr) munmap(data_, bytes());
    if (device_ != nullptr) device_->ReleaseAlloc(bytes(), false);
  }

  Device* device_;
  T* data_ = nullptr;
  std::size_t size_;
};

/// RAII constant-memory symbol holding \p T elements.
template <typename T>
class ConstantBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ConstantBuffer(Device& device, std::size_t count)
      : device_(&device), storage_(count) {
    device_->RegisterAlloc(storage_.size() * sizeof(T), /*constant=*/true);
  }
  ~ConstantBuffer() {
    if (device_ != nullptr) {
      device_->ReleaseAlloc(storage_.size() * sizeof(T), /*constant=*/true);
    }
  }
  ConstantBuffer(const ConstantBuffer&) = delete;
  ConstantBuffer& operator=(const ConstantBuffer&) = delete;

  /// cudaMemcpyToSymbol.
  void CopyFromHost(std::span<const T> host) {
    if (host.size() != storage_.size()) {
      throw GpuError("CopyFromHost(constant): size mismatch");
    }
    std::memcpy(storage_.data(), host.data(), host.size() * sizeof(T));
    device_->RecordH2D(host.size() * sizeof(T));
  }

  /// Scalar convenience for single-element symbols.
  void Set(const T& value) { CopyFromHost(std::span<const T>(&value, 1)); }

  std::size_t size() const { return storage_.size(); }
  const T* data() const { return storage_.data(); }
  const T& value() const { return storage_[0]; }

 private:
  Device* device_;
  std::vector<T> storage_;
};

}  // namespace cdd::sim
