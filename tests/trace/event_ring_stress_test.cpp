/// Multi-threaded stress for the trace recorder: one single-producer
/// EventRing per worker thread, exactly the topology the host-parallel
/// execution backend creates.  The suite name is in the TSan CI regex —
/// these tests are the data-race harness for the ring's cross-thread
/// written()/dropped() reads and for the registry's thread bookkeeping
/// (SetThreadLabel from many threads at once).

#include "trace/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace/tracer.hpp"

namespace cdd::trace {
namespace {

TEST(EventRingStress, ConcurrentProducersKeepIndependentDropCounts) {
  // Each worker owns one ring (the single-producer contract); the main
  // thread concurrently polls written()/dropped(), which the ring
  // documents as safe from any thread.  Monotonicity of those reads and
  // exact post-join counts are the assertions TSan sharpens.
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kEvents = 5000;
  constexpr std::size_t kCapacity = 64;  // already a power of two

  std::vector<std::unique_ptr<EventRing>> rings;
  for (unsigned i = 0; i < kThreads; ++i) {
    rings.push_back(std::make_unique<EventRing>(kCapacity));
  }

  std::atomic<unsigned> running{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned i = 0; i < kThreads; ++i) {
    workers.emplace_back([&rings, &running, i] {
      running.fetch_add(1, std::memory_order_relaxed);
      EventRing& ring = *rings[i];
      for (std::uint64_t k = 0; k < kEvents; ++k) {
        ring.Push({"stress", static_cast<std::int64_t>(k), 0,
                   kTrackOwnThread, EventType::kInstant});
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  // Reader side: counters must be monotonic while producers are live.
  // dropped() reloads the write count, so the producer may advance between
  // a written() read and it; bracketing it by two written() reads bounds
  // it from both sides without racing.
  const auto expected_dropped = [](std::uint64_t w) {
    return w > kCapacity ? w - kCapacity : std::uint64_t{0};
  };
  std::vector<std::uint64_t> last_written(kThreads, 0);
  while (running.load(std::memory_order_relaxed) != 0) {
    for (unsigned i = 0; i < kThreads; ++i) {
      const std::uint64_t w1 = rings[i]->written();
      const std::uint64_t d = rings[i]->dropped();
      const std::uint64_t w2 = rings[i]->written();
      EXPECT_GE(w1, last_written[i]);
      EXPECT_GE(w2, w1);
      EXPECT_LE(w2, kEvents);
      last_written[i] = w2;
      EXPECT_GE(d, expected_dropped(w1));
      EXPECT_LE(d, expected_dropped(w2));
    }
  }
  for (std::thread& t : workers) t.join();

  for (unsigned i = 0; i < kThreads; ++i) {
    EXPECT_EQ(rings[i]->written(), kEvents);
    EXPECT_EQ(rings[i]->dropped(), kEvents - kCapacity);
    const std::vector<Event> events = rings[i]->Snapshot();
    ASSERT_EQ(events.size(), kCapacity);
    // Oldest-first: the survivors are the last kCapacity pushes in order.
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(events[k].ts_ns,
                static_cast<std::int64_t>(kEvents - kCapacity + k));
    }
  }
}

TEST(EventRingStress, RegistrySumsPerThreadRingsAfterJoin) {
  // Through the tracer: every thread records into its own thread-local
  // ring (registered on first use) and labels its track — the same calls
  // exec::HostThreadPool workers make.  After the join, the process-wide
  // sums must account for every event either as surviving or dropped.
  ResetForTest();
  SetRingCapacity(32);
  constexpr unsigned kThreads = 6;
  constexpr std::uint64_t kEvents = 1000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned i = 0; i < kThreads; ++i) {
    workers.emplace_back([i] {
      SetThreadLabel("stress-worker-" + std::to_string(i));
      for (std::uint64_t k = 0; k < kEvents; ++k) {
        Record({"registry_stress", static_cast<std::int64_t>(k), 0,
                kTrackOwnThread, EventType::kInstant});
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(EventCount(), static_cast<std::uint64_t>(kThreads) * 32);
  EXPECT_EQ(DroppedTotal(),
            static_cast<std::uint64_t>(kThreads) * (kEvents - 32));
  EXPECT_EQ(EventCount() + DroppedTotal(),
            static_cast<std::uint64_t>(kThreads) * kEvents);
  ResetForTest();
}

}  // namespace
}  // namespace cdd::trace
