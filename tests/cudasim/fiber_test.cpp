/// Fiber substrate tests: resume/yield lifecycle, exceptions, pooling, and
/// the state a context switch must carry (callee-saved registers, FP
/// control, stack alignment) across yields and host threads.

#include "cudasim/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cdd::sim {
namespace {

TEST(Fiber, RunsToCompletionWithoutYield) {
  Fiber fiber;
  int counter = 0;
  fiber.Reset([&]() { counter = 42; });
  EXPECT_FALSE(fiber.done());
  EXPECT_FALSE(fiber.Resume());  // returns false: body finished
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(counter, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber fiber;
  std::vector<int> trace;
  fiber.Reset([&]() {
    trace.push_back(1);
    fiber.Yield();
    trace.push_back(2);
    fiber.Yield();
    trace.push_back(3);
  });
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1}));
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, InterleavesTwoFibers) {
  Fiber a;
  Fiber b;
  std::vector<char> trace;
  a.Reset([&]() {
    trace.push_back('a');
    a.Yield();
    trace.push_back('A');
  });
  b.Reset([&]() {
    trace.push_back('b');
    b.Yield();
    trace.push_back('B');
  });
  a.Resume();
  b.Resume();
  a.Resume();
  b.Resume();
  EXPECT_EQ(trace, (std::vector<char>{'a', 'b', 'A', 'B'}));
}

TEST(Fiber, ExceptionsAreCapturedAndRethrown) {
  Fiber fiber;
  fiber.Reset([]() { throw std::runtime_error("kernel exploded"); });
  EXPECT_FALSE(fiber.Resume());  // body "finished" (by throwing)
  EXPECT_THROW(fiber.RethrowIfFailed(), std::runtime_error);
  // A second rethrow is a no-op (error consumed).
  EXPECT_NO_THROW(fiber.RethrowIfFailed());
}

TEST(Fiber, IsReusableAfterCompletion) {
  Fiber fiber;
  int total = 0;
  for (int round = 0; round < 10; ++round) {
    fiber.Reset([&]() { total += round; });
    fiber.Resume();
    ASSERT_TRUE(fiber.done());
  }
  EXPECT_EQ(total, 45);
}

TEST(Fiber, ResetWhileRunningThrows) {
  Fiber fiber;
  fiber.Reset([&]() { fiber.Yield(); });
  fiber.Resume();  // suspended at the yield
  EXPECT_THROW(fiber.Reset([]() {}), std::logic_error);
}

TEST(Fiber, ResumeAfterDoneThrows) {
  Fiber fiber;
  fiber.Reset([]() {});
  fiber.Resume();
  EXPECT_THROW(fiber.Resume(), std::logic_error);
}

TEST(FiberPool, GrowsAndReuses) {
  FiberPool pool;
  auto& first = pool.Acquire(4);
  EXPECT_GE(first.size(), 4u);
  Fiber* addr = &first[0];
  auto& second = pool.Acquire(2);  // no shrink
  EXPECT_GE(second.size(), 4u);
  EXPECT_EQ(&second[0], addr);  // same fibers, reused
  auto& third = pool.Acquire(8);
  EXPECT_GE(third.size(), 8u);
}

TEST(FiberPool, ClearDropsFibers) {
  FiberPool pool;
  pool.Acquire(4);
  pool.Clear();
  auto& fresh = pool.Acquire(1);
  EXPECT_GE(fresh.size(), 1u);
}

TEST(Fiber, DeepStackUsageSurvives) {
  // Exercise a few KB of stack inside the fiber (the O(n) evaluators use
  // far less).
  Fiber fiber(128 * 1024);
  long long sum = 0;
  fiber.Reset([&]() {
    volatile char buffer[32 * 1024];
    for (std::size_t i = 0; i < sizeof buffer; ++i) {
      buffer[i] = static_cast<char>(i);
    }
    for (std::size_t i = 0; i < sizeof buffer; i += 1024) {
      sum += buffer[i];
    }
  });
  fiber.Resume();
  EXPECT_TRUE(fiber.done());
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  // 1/10 is inexact, so its rounding shows the SSE (MXCSR) mode as well as
  // fegetround's x87 control word.
  volatile double one = 1.0;
  volatile double ten = 10.0;
  Fiber fiber;
  int mode_after_resume = -1;
  double tenth_after_resume = 0.0;
  fiber.Reset([&]() {
    std::fesetround(FE_DOWNWARD);
    fiber.Yield();
    mode_after_resume = std::fegetround();
    tenth_after_resume = one / ten;
  });
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / ten, 0.1);
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(mode_after_resume, FE_DOWNWARD);
  EXPECT_LT(tenth_after_resume, 0.1);
  // The body exited with FE_DOWNWARD set; the caller's mode is its own.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / ten, 0.1);
}

TEST(Fiber, FinishesWhenResumedFromOtherThreads) {
  Fiber fiber;
  std::vector<int> trace;
  fiber.Reset([&]() {
    const int base = static_cast<int>(trace.size()) + 10;
    trace.push_back(base);
    fiber.Yield();
    trace.push_back(base + 1);
    fiber.Yield();
    trace.push_back(base + 2);
  });
  // Each resume runs on a fresh host thread: the fiber is suspended on one
  // thread's stack switch and continued from another's.
  std::vector<bool> more;
  for (int hop = 0; hop < 3; ++hop) {
    std::thread host([&]() { more.push_back(fiber.Resume()); });
    host.join();
  }
  EXPECT_EQ(more, (std::vector<bool>{true, true, false}));
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(trace, (std::vector<int>{10, 11, 12}));
}

TEST(Fiber, StackIsAbiAligned) {
  Fiber fiber;
  std::vector<std::uintptr_t> addresses;
  std::vector<std::string> printed;
  const auto probe = [&]() {
    alignas(16) volatile unsigned char lane[16] = {};
    addresses.push_back(reinterpret_cast<std::uintptr_t>(&lane[0]));
    // Variadic calls spill vector registers with aligned stores, so a
    // misaligned stack faults here.
    char text[32];
    std::snprintf(text, sizeof text, "%f", 2.5 + lane[0]);
    printed.emplace_back(text);
  };
  fiber.Reset([&]() {
    probe();
    fiber.Yield();
    probe();
  });
  while (fiber.Resume()) {
  }
  ASSERT_EQ(addresses.size(), 2u);
  for (const std::uintptr_t address : addresses) {
    EXPECT_EQ(address % 16, 0u);
  }
  EXPECT_EQ(printed, (std::vector<std::string>{"2.500000", "2.500000"}));
}

TEST(Fiber, ExceptionAfterYieldIsCapturedAndRethrown) {
  Fiber fiber;
  fiber.Reset([&]() {
    fiber.Yield();
    throw std::runtime_error("thrown after a yield");
  });
  EXPECT_TRUE(fiber.Resume());
  EXPECT_NO_THROW(fiber.RethrowIfFailed());
  EXPECT_FALSE(fiber.Resume());
  try {
    fiber.RethrowIfFailed();
    ADD_FAILURE() << "the body's exception was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown after a yield");
  }
  // The fiber is reusable after a failed body.
  int ran = 0;
  fiber.Reset([&]() { ran = 1; });
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(ran, 1);
}

/// Keeps several integers live across every call to \p pause, so an
/// optimized build holds them in callee-saved registers over the switch.
template <typename Pause>
std::uint64_t Churn(std::uint64_t seed, int rounds, Pause&& pause) {
  std::uint64_t a = seed;
  std::uint64_t b = seed * 7 + 1;
  std::uint64_t c = ~seed;
  std::uint64_t d = seed * seed;
  std::uint64_t e = seed ^ 0x9e3779b97f4a7c15ull;
  for (int r = 0; r < rounds; ++r) {
    a += b;
    b ^= c >> 3;
    c = c * 3 + 1;
    d += a ^ e;
    e = (e << 1) | (e >> 63);
    pause();
  }
  return a ^ b ^ c ^ d ^ e;
}

TEST(Fiber, ManyFibersKeepLiveLocalsAcrossYields) {
  constexpr std::size_t kFibers = 64;
  constexpr int kYields = 1000;
  FiberPool pool;
  auto& fibers = pool.Acquire(kFibers);
  std::vector<std::uint64_t> got(kFibers, 0);
  for (std::size_t i = 0; i < kFibers; ++i) {
    Fiber& self = fibers[i];
    fibers[i].Reset([&got, &self, i]() {
      got[i] = Churn(i, kYields, [&self]() { self.Yield(); });
    });
  }
  int rounds = 0;
  for (bool live = true; live; ++rounds) {
    live = false;
    for (std::size_t i = 0; i < kFibers; ++i) {
      if (!fibers[i].done()) live = fibers[i].Resume() || live;
    }
  }
  EXPECT_EQ(rounds, kYields + 1);
  for (std::size_t i = 0; i < kFibers; ++i) {
    EXPECT_EQ(got[i], Churn(i, kYields, []() {})) << "fiber " << i;
  }
}

}  // namespace
}  // namespace cdd::sim
