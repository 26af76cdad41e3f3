/// Device memory tests: RAII accounting, transfer ledger, limits.

#include "cudasim/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cdd::sim {
namespace {

TEST(DeviceBuffer, RoundTripCopies) {
  Device gpu;
  DeviceBuffer<int> buffer(gpu, 8);
  const std::vector<int> host{1, 2, 3, 4, 5, 6, 7, 8};
  buffer.CopyFromHost(host);
  std::vector<int> back(8, 0);
  buffer.CopyToHost(back);
  EXPECT_EQ(back, host);
}

TEST(DeviceBuffer, PartialCopiesRespectOffsets) {
  Device gpu;
  DeviceBuffer<int> buffer(gpu, 6);
  buffer.Fill(0);
  const std::vector<int> part{7, 8};
  buffer.CopyFromHost(part, /*offset=*/2);
  std::vector<int> back(2, 0);
  buffer.CopyToHost(std::span<int>(back), /*offset=*/2);
  EXPECT_EQ(back, part);
  EXPECT_THROW(buffer.CopyFromHost(part, 5), GpuError);
  EXPECT_THROW(buffer.CopyToHost(std::span<int>(back), 5), GpuError);
}

TEST(DeviceBuffer, SizeMismatchThrows) {
  Device gpu;
  DeviceBuffer<int> buffer(gpu, 4);
  std::vector<int> wrong(3, 0);
  EXPECT_THROW(buffer.CopyFromHost(wrong), GpuError);
  EXPECT_THROW(buffer.CopyToHost(wrong), GpuError);
}

TEST(DeviceBuffer, AllocationIsAccountedAndReleased) {
  Device gpu;
  EXPECT_EQ(gpu.allocated_bytes(), 0u);
  {
    DeviceBuffer<double> buffer(gpu, 100);
    EXPECT_EQ(gpu.allocated_bytes(), 800u);
    DeviceBuffer<double> moved = std::move(buffer);
    EXPECT_EQ(gpu.allocated_bytes(), 800u);  // move does not double count
  }
  EXPECT_EQ(gpu.allocated_bytes(), 0u);
}

TEST(DeviceBuffer, StartsZeroedAndMovesItsMapping) {
  Device gpu;
  DeviceBuffer<std::int64_t> a(gpu, 100000);  // many pages
  std::int64_t* storage = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(storage[i], 0) << i;
  storage[99999] = 7;
  DeviceBuffer<std::int64_t> b = std::move(a);
  EXPECT_EQ(b.data(), storage);
  DeviceBuffer<std::int64_t> c(gpu, 3);
  c = std::move(b);  // unmaps and releases c's own three elements
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c.data()[99999], 7);
  EXPECT_EQ(gpu.allocated_bytes(), 800000u);
  DeviceBuffer<int> empty(gpu, 0);
  std::vector<int> none;
  empty.CopyFromHost(none);
  empty.CopyToHost(none);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(DeviceBuffer, GlobalMemoryExhaustionThrows) {
  DeviceProperties props = TinyDevice();
  props.global_mem = 1024;
  Device gpu(props);
  EXPECT_THROW(DeviceBuffer<char>(gpu, 2048), GpuError);
  DeviceBuffer<char> ok(gpu, 512);
  EXPECT_THROW(DeviceBuffer<char>(gpu, 1024), GpuError);
}

TEST(DeviceBuffer, TransfersAreMeteredByDirection) {
  Device gpu;
  DeviceBuffer<int> buffer(gpu, 1024);
  std::vector<int> host(1024, 1);
  buffer.CopyFromHost(host);
  buffer.CopyFromHost(host);
  buffer.CopyToHost(host);
  EXPECT_EQ(gpu.profiler().h2d().count, 2u);
  EXPECT_EQ(gpu.profiler().h2d().bytes, 2 * 1024 * sizeof(int));
  EXPECT_EQ(gpu.profiler().d2h().count, 1u);
  EXPECT_GT(gpu.profiler().h2d().sim_time_s, 0.0);
}

TEST(ConstantBuffer, HoldsSymbolsAndRespectsLimit) {
  Device gpu;
  ConstantBuffer<std::int64_t> d(gpu, 1);
  d.Set(16);
  EXPECT_EQ(d.value(), 16);

  DeviceProperties props = TinyDevice();
  props.constant_mem = 8;
  Device small(props);
  EXPECT_THROW(ConstantBuffer<std::int64_t>(small, 2), GpuError);
}

TEST(Device, ResetClockZeroesSimTimeOnly) {
  Device gpu;
  gpu.Launch({1}, {32}, [](ThreadCtx& t) { t.charge(100); });
  EXPECT_GT(gpu.sim_time_s(), 0.0);
  gpu.ResetClock();
  EXPECT_EQ(gpu.sim_time_s(), 0.0);
  EXPECT_EQ(gpu.profiler().kernels().size(), 1u);  // profiler untouched
}

}  // namespace
}  // namespace cdd::sim
