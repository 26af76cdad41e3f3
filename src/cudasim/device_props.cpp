#include "cudasim/device_props.hpp"

#include <algorithm>

namespace cdd::sim {

std::uint32_t DeviceProperties::ResidentBlocksPerSm(
    std::uint32_t threads_per_block) const {
  if (threads_per_block == 0) return 0;
  const std::uint32_t by_threads = max_threads_per_sm / threads_per_block;
  return std::max<std::uint32_t>(1u,
                                 std::min(by_threads, max_blocks_per_sm));
}

DeviceProperties GeForceGT560M() {
  DeviceProperties p;
  p.name = "GeForce GT 560M (simulated)";
  p.sm_count = 4;
  p.cores_per_sm = 48;  // 192 CUDA cores total
  p.warp_size = 32;
  p.max_threads_per_block = 1024;
  p.max_threads_per_sm = 1536;
  p.max_blocks_per_sm = 8;
  p.shared_mem_per_block = 48 * 1024;
  p.global_mem = 2ull * 1024 * 1024 * 1024;  // "2 GB graphics card memory"
  p.clock_hz = 1.55e9;
  p.h2d_bandwidth = 6.0e9;
  p.d2h_bandwidth = 6.0e9;
  return p;
}

DeviceProperties TinyDevice() {
  DeviceProperties p;
  p.name = "Tiny test device";
  p.sm_count = 1;
  p.cores_per_sm = 32;
  p.warp_size = 32;
  p.max_threads_per_block = 256;
  p.max_threads_per_sm = 256;
  p.max_blocks_per_sm = 1;
  p.shared_mem_per_block = 16 * 1024;
  p.clock_hz = 1.0e9;
  return p;
}

}  // namespace cdd::sim
