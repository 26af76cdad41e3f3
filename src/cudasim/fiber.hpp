#pragma once
/// \file fiber.hpp
/// \brief Stackful fibers — the execution vehicle for simulated GPU threads.
///
/// A thread block with `__syncthreads()` needs every one of its threads to
/// be suspendable at the barrier.  OS threads would be far too heavy (the
/// paper's configuration alone is 4 blocks x 192 threads); instead each
/// simulated thread is a fiber that the BlockRunner schedules
/// cooperatively on one host thread.  Fibers are pooled and reused across
/// blocks, so steady-state execution performs no allocation.
///
/// On x86-64 a switch is a few instructions of assembly: it pushes the
/// callee-saved registers (rbx, rbp, r12-r15), saves MXCSR and the x87
/// control word, swaps stack pointers and pops the other side's copies.
/// Resume, Yield and arming a fiber never touch the signal mask, so none of
/// them makes a system call.  The FP control state (rounding mode) is per
/// fiber, as with ucontext.  Builds under ASan or TSan announce every
/// switch to the sanitizer.  A switch is called on one stack and continues
/// on another through an indirect jump, never the `ret` its call expects,
/// so it cannot run with CET hardware shadow stacks (SHSTK) or indirect
/// branch tracking enabled.  Other ISAs use glibc ucontext
/// (getcontext/makecontext/swapcontext).

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace cdd::sim {

/// A reusable stackful coroutine.
///
/// Lifecycle: Reset(fn) arms the fiber with a body; Resume() runs it until
/// it calls Yield() or the body returns; done() reports completion.
/// Resume()/Yield() must be paired on the same host thread for any single
/// resume, but a Fiber may be resumed from different host threads over its
/// lifetime (no thread-local state survives a yield).
class Fiber {
 public:
  /// \param stack_bytes size of the private stack (rounded up to page-ish
  /// granularity).  64 KiB comfortably fits the O(n) evaluators, which are
  /// iterative and allocation-free.
  explicit Fiber(std::size_t stack_bytes = 64 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) noexcept;
  Fiber& operator=(Fiber&&) noexcept;

  /// Arms the fiber with a new body.  Must not be running.
  void Reset(std::function<void()> body);

  /// Runs the fiber until Yield() or completion.  Returns true while the
  /// body has more work (yielded), false once it returned.
  bool Resume();

  /// Suspends the currently running fiber (call from inside the body only).
  void Yield();

  bool done() const { return done_; }

  /// Rethrows an exception that escaped the fiber body, if any.
  void RethrowIfFailed();

  struct Impl;  // public so the fiber entry function can reach it

 private:
  std::unique_ptr<Impl> impl_;
  bool done_ = true;
};

/// Grow-only pool of fibers, one per simulated thread slot of a block.
class FiberPool {
 public:
  explicit FiberPool(std::size_t stack_bytes = 64 * 1024)
      : stack_bytes_(stack_bytes) {}

  /// Ensures at least \p count fibers exist and returns the backing vector.
  std::vector<Fiber>& Acquire(std::size_t count);

  /// Destroys all fibers.  Used after an exception escaped a kernel body:
  /// sibling fibers of the failing block are still suspended and cannot be
  /// re-armed, so their stacks are dropped wholesale (objects live on those
  /// stacks are not destructed — same caveat as any stackful-coroutine
  /// abandonment).
  void Clear() { fibers_.clear(); }

 private:
  std::size_t stack_bytes_;
  std::vector<Fiber> fibers_;
};

}  // namespace cdd::sim
