/// Profiler bookkeeping tests.

#include "cudasim/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "cudasim/device.hpp"

namespace cdd::sim {
namespace {

TEST(Profiler, AggregatesPerKernelName) {
  Profiler prof;
  prof.RecordKernel("fitness", 4, 768, 1000, 0.5);
  prof.RecordKernel("fitness", 4, 768, 2000, 0.25);
  prof.RecordKernel("reduce", 1, 32, 10, 0.01);

  const KernelRecord* fitness = prof.Find("fitness");
  ASSERT_NE(fitness, nullptr);
  EXPECT_EQ(fitness->launches, 2u);
  EXPECT_EQ(fitness->blocks, 8u);
  EXPECT_EQ(fitness->threads, 1536u);
  EXPECT_EQ(fitness->work_units, 3000u);
  EXPECT_DOUBLE_EQ(fitness->sim_time_s, 0.75);
  EXPECT_EQ(prof.kernels().size(), 2u);
  EXPECT_EQ(prof.Find("absent"), nullptr);
}

TEST(Profiler, TransfersByDirection) {
  Profiler prof;
  prof.RecordTransfer(true, 100, 0.1);
  prof.RecordTransfer(true, 200, 0.2);
  prof.RecordTransfer(false, 50, 0.05);
  EXPECT_EQ(prof.h2d().count, 2u);
  EXPECT_EQ(prof.h2d().bytes, 300u);
  EXPECT_DOUBLE_EQ(prof.h2d().sim_time_s, 0.3);
  EXPECT_EQ(prof.d2h().count, 1u);
  EXPECT_EQ(prof.d2h().bytes, 50u);
}

TEST(Profiler, ReportContainsEverySection) {
  Profiler prof;
  prof.RecordKernel("my_kernel", 1, 1, 1, 0.001);
  prof.RecordTransfer(true, 42, 0.002);
  const std::string report = prof.Report();
  EXPECT_NE(report.find("my_kernel"), std::string::npos);
  EXPECT_NE(report.find("modeled [ms]"), std::string::npos);
  EXPECT_NE(report.find("wall [ms]"), std::string::npos);
  EXPECT_NE(report.find("H->D"), std::string::npos);
  EXPECT_NE(report.find("D->H"), std::string::npos);
  EXPECT_NE(report.find("42"), std::string::npos);
}

TEST(Profiler, ResetClearsEverything) {
  Profiler prof;
  prof.RecordKernel("k", 1, 1, 1, 1.0);
  prof.RecordTransfer(false, 1, 1.0);
  prof.Reset();
  EXPECT_TRUE(prof.kernels().empty());
  EXPECT_EQ(prof.h2d().count, 0u);
  EXPECT_EQ(prof.d2h().count, 0u);
}

TEST(Profiler, AggregatesWallTime) {
  Profiler prof;
  prof.RecordKernel("fitness", 4, 768, 1000, 0.5, 0.003);
  prof.RecordKernel("fitness", 4, 768, 2000, 0.25, 0.001);
  EXPECT_DOUBLE_EQ(prof.Find("fitness")->wall_s, 0.004);
  EXPECT_DOUBLE_EQ(prof.Find("fitness")->sim_time_s, 0.75);
}

TEST(Profiler, DeviceRecordsKernelWallTimeUnderBothBackends) {
  // Block execution is timed on the host: a kernel whose thread 0 spins
  // for 200 us records at least that much wall time, serially and with
  // blocks fanned out over the host pool, while the modeled figures stay
  // backend-independent.
  const auto busy = [](ThreadCtx& t) {
    t.charge(1);
    if (t.linear_thread() != 0) return;
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::microseconds(200)) {
    }
  };
  double modeled[2] = {0.0, 0.0};
  for (const unsigned workers : {1u, 2u}) {
    Device gpu;
    gpu.set_worker_threads(workers);
    gpu.Launch({4}, {32}, busy);
    const KernelRecord* r = gpu.profiler().Find("kernel");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->launches, 1u);
    EXPECT_EQ(r->work_units, 128u);
    EXPECT_GE(r->wall_s, 200e-6) << "workers=" << workers;
    modeled[workers - 1] = r->sim_time_s;
    gpu.profiler().Reset();
    EXPECT_EQ(gpu.profiler().Find("kernel"), nullptr);
  }
  EXPECT_EQ(modeled[0], modeled[1]);
}

}  // namespace
}  // namespace cdd::sim
