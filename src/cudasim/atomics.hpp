#pragma once
/// \file atomics.hpp
/// \brief Device atomics — the simulator's counterparts of atomicMin and
/// atomicAdd, the two the kernels use.
///
/// Simulated threads of different blocks may run on different host threads,
/// so "device global memory" accessed by atomics must really be atomic on
/// the host.  std::atomic_ref lets plain buffer elements be operated on
/// atomically without changing their storage type, exactly matching CUDA's
/// model where any global word can be the target of an atomic.

#include <atomic>
#include <concepts>
#include <cstdint>

namespace cdd::sim {

/// atomicAdd: returns the previous value.
template <typename T>
  requires std::integral<T>
inline T AtomicAdd(T* address, T value) {
  return std::atomic_ref<T>(*address).fetch_add(value,
                                                std::memory_order_relaxed);
}

/// atomicMin: returns the previous value.  CAS loop because std::atomic_ref
/// has no fetch_min until C++26.
template <typename T>
  requires std::integral<T>
inline T AtomicMin(T* address, T value) {
  std::atomic_ref<T> ref(*address);
  T observed = ref.load(std::memory_order_relaxed);
  while (value < observed &&
         !ref.compare_exchange_weak(observed, value,
                                    std::memory_order_relaxed)) {
  }
  return observed;
}

}  // namespace cdd::sim
