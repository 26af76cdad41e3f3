/// Execution-backend tests: selection plumbing, serial vs host-parallel
/// bit-identity of kernel results AND modeled time (the virtual-clock
/// separation), phased kernels under real threads, deterministic
/// error propagation.  The suite name is in the TSan CI regex: these
/// tests double as the data-race harness for exec::HostThreadPool.

#include "cudasim/exec/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"

namespace cdd::sim {
namespace {

TEST(ExecBackend, ParseAndToStringRoundTrip) {
  exec::ExecBackend backend = exec::ExecBackend::kHostParallel;
  EXPECT_TRUE(exec::ParseExecBackend("serial", &backend));
  EXPECT_EQ(backend, exec::ExecBackend::kSerial);
  EXPECT_TRUE(exec::ParseExecBackend("host-parallel", &backend));
  EXPECT_EQ(backend, exec::ExecBackend::kHostParallel);

  EXPECT_EQ(exec::ToString(exec::ExecBackend::kSerial), "serial");
  EXPECT_EQ(exec::ToString(exec::ExecBackend::kHostParallel),
            "host-parallel");

  // Round trip through the names.
  for (const exec::ExecBackend b :
       {exec::ExecBackend::kSerial, exec::ExecBackend::kHostParallel}) {
    exec::ExecBackend parsed = exec::ExecBackend::kSerial;
    EXPECT_TRUE(exec::ParseExecBackend(exec::ToString(b), &parsed));
    EXPECT_EQ(parsed, b);
  }

  // Unknown names fail and leave the output untouched.
  backend = exec::ExecBackend::kHostParallel;
  EXPECT_FALSE(exec::ParseExecBackend("cuda", &backend));
  EXPECT_FALSE(exec::ParseExecBackend("", &backend));
  EXPECT_EQ(backend, exec::ExecBackend::kHostParallel);
}

TEST(ExecBackend, WorkerCapFollowsBackendAndOverrides) {
  Device gpu;
  // A serial device always runs one worker regardless of the machine.
  gpu.set_exec_backend(exec::ExecBackend::kSerial);
  EXPECT_EQ(gpu.worker_threads(), 1u);
  // Host-parallel derives the cap from the process-wide worker setting.
  gpu.set_exec_backend(exec::ExecBackend::kHostParallel);
  EXPECT_EQ(gpu.worker_threads(), exec::ActiveExecWorkers());
  EXPECT_GE(gpu.worker_threads(), 1u);
  // An explicit per-device count wins over the backend in both directions.
  gpu.set_worker_threads(4);
  EXPECT_EQ(gpu.worker_threads(), 4u);
  gpu.set_exec_backend(exec::ExecBackend::kSerial);
  EXPECT_EQ(gpu.worker_threads(), 4u);
  gpu.set_worker_threads(1);
  gpu.set_exec_backend(exec::ExecBackend::kHostParallel);
  EXPECT_EQ(gpu.worker_threads(), 1u);
}

/// The paper's reduction shape: every thread posts a packed
/// (cost << 20) | tid candidate into one global AtomicMin cell and
/// charges a thread-dependent amount of modeled work.  Returns the
/// reduction result, the per-thread output buffer and the device's
/// virtual clock after the launch.
struct ReductionRun {
  std::int64_t best;
  std::vector<std::uint64_t> out;
  double sim_time_s;
};

ReductionRun RunReduction(unsigned workers) {
  Device gpu;
  gpu.set_worker_threads(workers);
  constexpr std::uint32_t kBlocks = 24;
  constexpr std::uint32_t kThreads = 64;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::vector<std::uint64_t> out(kBlocks * kThreads, 0);
  std::uint64_t* data = out.data();
  std::int64_t* cell = &best;
  gpu.Launch({kBlocks}, {kThreads}, [data, cell](ThreadCtx& t) {
    const std::uint64_t tid = t.global_thread();
    const auto cost = static_cast<std::int64_t>((tid * 2654435761u) %
                                                (std::int64_t{1} << 40));
    AtomicMin(cell, (cost << 20) | static_cast<std::int64_t>(tid));
    data[tid] = tid * 0x9e3779b97f4a7c15ull;
    t.charge(13 + tid % 7);
  });
  return {best, std::move(out), gpu.sim_time_s()};
}

TEST(ExecBackend, ReductionAndModeledTimeAreBitIdenticalToSerial) {
  const ReductionRun serial = RunReduction(1);
  for (const unsigned workers : {2u, 4u, 8u}) {
    const ReductionRun parallel = RunReduction(workers);
    EXPECT_EQ(parallel.best, serial.best) << workers << " workers";
    EXPECT_EQ(parallel.out, serial.out) << workers << " workers";
    // The virtual clock is fed only by charge() aggregates reduced in
    // block-index order, so modeled time matches to the last bit.
    EXPECT_EQ(parallel.sim_time_s, serial.sim_time_s)
        << workers << " workers";
  }
}

TEST(ExecBackend, PhasedKernelMatchesSerialAcrossManyBlocks) {
  const auto run = [](unsigned workers) {
    Device gpu;
    gpu.set_worker_threads(workers);
    constexpr std::uint32_t kBlocks = 16;
    constexpr std::uint32_t kThreads = 32;
    std::vector<int> out(kBlocks * kThreads, -1);
    int* results = out.data();
    LaunchOptions opts;
    opts.shared_bytes = kThreads * sizeof(int);
    const KernelFn phases[] = {
        [](ThreadCtx& t) {
          t.shared_as<int>()[t.linear_thread()] =
              static_cast<int>(t.global_thread());
        },
        [results](ThreadCtx& t) {
          results[t.global_thread()] =
              t.shared_as<int>()[(t.linear_thread() + 5) % kThreads];
        },
        [](ThreadCtx&) {}};
    gpu.LaunchPhases({kBlocks}, {kThreads}, opts, phases);
    return out;
  };
  const std::vector<int> serial = run(1);
  EXPECT_EQ(run(4), serial);
}

TEST(ExecBackend, LowestBlockErrorWinsAndDeviceSurvives) {
  Device gpu;
  gpu.set_worker_threads(4);
  // Several blocks throw; the rethrown error must be the lowest block
  // index regardless of which worker hit its failure first.
  try {
    gpu.Launch({16}, {8}, [](ThreadCtx& t) {
      if (t.linear_block() >= 5) {
        throw std::runtime_error("block " +
                                 std::to_string(t.linear_block()));
      }
    });
    FAIL() << "expected the kernel exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 5");
  }
  // The device (and the shared worker pool) must survive for reuse.
  std::vector<int> ok(64, 0);
  int* data = ok.data();
  EXPECT_NO_THROW(gpu.Launch({8}, {8}, [data](ThreadCtx& t) {
    data[t.global_thread()] = 1;
  }));
  EXPECT_EQ(std::accumulate(ok.begin(), ok.end(), 0), 64);
}

TEST(ExecBackend, SkewedBlocksRunOnceAndLowestErrorWins) {
  Device gpu;
  gpu.set_worker_threads(4);
  // Heavily skewed block costs: the last block is the only expensive
  // one.  The shared cursor hands it to one participant while the others
  // drain the cheap blocks; every index must still run exactly once.
  constexpr std::uint32_t kBlocks = 64;
  std::vector<int> ran(kBlocks, 0);
  int* data = ran.data();
  gpu.Launch({kBlocks}, {1}, [data](ThreadCtx& t) {
    const std::uint32_t b = t.linear_block();
    volatile std::uint64_t spin = 0;
    const std::uint64_t iters = b == 63 ? 200000 : 50;
    for (std::uint64_t i = 0; i < iters; ++i) spin = spin + i;
    data[b] += 1;
  });
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0),
            static_cast<int>(kBlocks));
  EXPECT_EQ(*std::min_element(ran.begin(), ran.end()), 1);

  // The deterministic lowest-block error rule holds on the same device.
  try {
    gpu.Launch({16}, {8}, [](ThreadCtx& t) {
      if (t.linear_block() >= 7) {
        throw std::runtime_error("block " +
                                 std::to_string(t.linear_block()));
      }
    });
    FAIL() << "expected the kernel exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 7");
  }
}

/// Everything one device run leaves behind that must not depend on the
/// host threads that ran it: outputs, the virtual clock and the profiler
/// records (wall time aside).
struct DeviceRun {
  std::vector<std::int64_t> best;
  std::vector<std::uint64_t> out;
  double sim_time_s = 0.0;
  std::vector<std::string> names;
  std::vector<std::uint64_t> counts;
  std::vector<double> modeled_s;
};

/// Drives one device through a generation-shaped loop: an upload, a
/// reduction into one AtomicMin cell, a two-phase shared-memory kernel,
/// a download and the synchronize fence.  \p seed makes two devices'
/// inputs differ, so a result that crossed devices would show.
DeviceRun DriveDevice(unsigned workers, std::uint64_t seed) {
  constexpr std::uint32_t kBlocks = 16;
  constexpr std::uint32_t kThreads = 32;
  constexpr std::uint64_t kRounds = 100;
  Device gpu;
  gpu.set_worker_threads(workers);
  DeviceBuffer<std::uint64_t> buf(gpu, kBlocks * kThreads);
  std::vector<std::uint64_t> host(kBlocks * kThreads);
  DeviceRun run;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = ((seed + r) * 0x9e3779b97f4a7c15ull) ^ (i * 2654435761u);
    }
    buf.CopyFromHost(host);
    std::uint64_t* data = buf.data();
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::int64_t* cell = &best;
    LaunchOptions reduce;
    reduce.name = "reduce";
    gpu.Launch({kBlocks}, {kThreads}, reduce, [data, cell](ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      const auto cost = static_cast<std::int64_t>(data[tid] >> 24);
      AtomicMin(cell, (cost << 20) | static_cast<std::int64_t>(tid));
      t.charge(7 + data[tid] % 11);
    });
    LaunchOptions rotate;
    rotate.name = "rotate";
    rotate.shared_bytes = kThreads * sizeof(std::uint64_t);
    const KernelFn phases[] = {
        [data](ThreadCtx& t) {
          t.shared_as<std::uint64_t>()[t.linear_thread()] =
              data[t.global_thread()];
          t.charge_shared(3);
        },
        [data](ThreadCtx& t) {
          data[t.global_thread()] = t.shared_as<std::uint64_t>()[
              (t.linear_thread() + 1) % kThreads] + t.linear_block();
          t.charge(1 + t.linear_thread() % 5);
        }};
    gpu.LaunchPhases({kBlocks}, {kThreads}, rotate, phases);
    buf.CopyToHost(host);
    gpu.Synchronize();
    run.best.push_back(best);
    run.out.insert(run.out.end(), host.begin(), host.end());
  }
  run.sim_time_s = gpu.sim_time_s();
  for (const auto& [name, rec] : gpu.profiler().kernels()) {
    run.names.push_back(name);
    run.counts.insert(run.counts.end(), {rec.launches, rec.blocks,
                                         rec.threads, rec.work_units});
    run.modeled_s.push_back(rec.sim_time_s);
  }
  const Profiler& prof = gpu.profiler();
  run.counts.insert(run.counts.end(), {prof.h2d().count, prof.h2d().bytes,
                                       prof.d2h().count, prof.d2h().bytes});
  run.modeled_s.push_back(prof.h2d().sim_time_s);
  run.modeled_s.push_back(prof.d2h().sim_time_s);
  return run;
}

void ExpectSameRun(const DeviceRun& got, const DeviceRun& want,
                   const std::string& who) {
  EXPECT_EQ(got.best, want.best) << who;
  EXPECT_EQ(got.out, want.out) << who;
  EXPECT_EQ(got.sim_time_s, want.sim_time_s) << who;
  EXPECT_EQ(got.names, want.names) << who;
  EXPECT_EQ(got.counts, want.counts) << who;
  EXPECT_EQ(got.modeled_s, want.modeled_s) << who;
}

TEST(ExecBackend, ConcurrentDevicesShareThePoolBitIdentically) {
  // The serve layer runs one device per in-flight request, so several
  // devices fan their blocks into the one HostThreadPool at once.  Each
  // must come out exactly as if it had run alone and serially.
  const DeviceRun serial_a = DriveDevice(1, 11);
  const DeviceRun serial_b = DriveDevice(1, 29);
  ASSERT_NE(serial_a.out, serial_b.out);
  DeviceRun a;
  DeviceRun b;
  std::thread ta([&a] { a = DriveDevice(4, 11); });
  std::thread tb([&b] { b = DriveDevice(4, 29); });
  ta.join();
  tb.join();
  ExpectSameRun(a, serial_a, "device a");
  ExpectSameRun(b, serial_b, "device b");
}

TEST(ExecBackend, BackendSelectionDoesNotChangeEngineResults) {
  // A device switched to host-parallel mid-life keeps producing the same
  // answers: run the same launch on the same device under both backends.
  Device gpu;
  const auto run = [&gpu] {
    std::vector<std::uint64_t> out(12 * 48, 0);
    std::uint64_t* data = out.data();
    gpu.Launch({12}, {48}, [data](ThreadCtx& t) {
      data[t.global_thread()] =
          t.global_thread() * 2654435761u + t.linear_block();
      t.charge(5);
    });
    return out;
  };
  gpu.set_exec_backend(exec::ExecBackend::kSerial);
  const std::vector<std::uint64_t> serial = run();
  gpu.set_worker_threads(3);
  EXPECT_EQ(run(), serial);
}

}  // namespace
}  // namespace cdd::sim
