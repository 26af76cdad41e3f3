#include "cudasim/fiber.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CDD_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDD_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define CDD_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CDD_FIBER_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(CDD_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__x86_64__) && defined(CDD_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace cdd::sim {

#if defined(__x86_64__)

// cdd_sim_fiber_switch(save, load) stores the running context's stack
// pointer in *save and continues the context whose stack pointer is load.
// A suspended context's stack holds, from its saved stack pointer up:
// MXCSR (4 bytes) and the x87 control word (padded to 4), r15, r14, r13,
// r12, rbx, rbp and the address to continue at.  Everything else the SysV
// ABI lets a callee clobber, so the C++ caller has already spilled it.  The
// switch pops that address and jumps to it instead of returning: a `ret`
// to a call site on another stack would leave the CPU's return-address
// predictor out of step, and every return after it would mispredict.
//
// A fresh fiber's frame (written by Fiber::Reset) continues at
// cdd_sim_fiber_entry with the Impl* in r12 and FiberMain in r13; the
// stub's CFI leaves its return address (DWARF register 16, rip) undefined,
// which marks it as the outermost frame for unwinders.
extern "C" {
void cdd_sim_fiber_switch(void** save, void* load) noexcept;
void cdd_sim_fiber_entry() noexcept;
}

asm(R"(
  .pushsection .text
  .globl cdd_sim_fiber_switch
  .hidden cdd_sim_fiber_switch
  .type cdd_sim_fiber_switch, @function
  .p2align 4
cdd_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  popq %r8
  jmpq *%r8
  .size cdd_sim_fiber_switch, .-cdd_sim_fiber_switch

  .globl cdd_sim_fiber_entry
  .hidden cdd_sim_fiber_entry
  .type cdd_sim_fiber_entry, @function
  .p2align 4
cdd_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined 16
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size cdd_sim_fiber_entry, .-cdd_sim_fiber_entry
  .popsection
)");

struct Fiber::Impl {
  void* sp = nullptr;         // the suspended fiber's stack pointer
  void* caller_sp = nullptr;  // the suspended resumer's stack pointer
  // Allocated uninitialized: the pages of a stack that no body reaches are
  // never touched, so they cost no resident memory.
  std::unique_ptr<char[]> stack;
  std::size_t stack_bytes = 0;
  std::function<void()> body;
  std::exception_ptr error;
  bool finished = true;
#if defined(CDD_FIBER_ASAN)
  void* fake_stack = nullptr;  // the fiber's own, while it is suspended
  const void* caller_stack = nullptr;
  std::size_t caller_stack_bytes = 0;
#endif
#if defined(CDD_FIBER_TSAN)
  void* tsan_fiber = __tsan_create_fiber(0);  // for the Fiber's lifetime
  void* tsan_caller = nullptr;

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() { __tsan_destroy_fiber(tsan_fiber); }
#endif
};

namespace {

// The sanitizers cannot see a stack switch they did not intercept, so each
// switch is announced to them: ASan moves its notion of the current stack
// (the resumer's may be another host thread's each time), TSan switches
// its per-thread state and orders the two sides (flags 0 = synchronize).

/// The first thing the fiber does after each switch into it.
void ArriveOnFiber([[maybe_unused]] Fiber::Impl& f) {
#if defined(CDD_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(f.fake_stack, &f.caller_stack,
                                  &f.caller_stack_bytes);
#endif
}

/// On the resumer's stack: runs the fiber until it yields or exits.
void EnterFiber(Fiber::Impl& f) {
#if defined(CDD_FIBER_TSAN)
  f.tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
#if defined(CDD_FIBER_ASAN)
  void* caller_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&caller_fake_stack, f.stack.get(),
                                 f.stack_bytes);
#endif
  cdd_sim_fiber_switch(&f.caller_sp, f.sp);
#if defined(CDD_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr);
#endif
}

/// On the fiber's stack: returns control to the resumer.  An exiting
/// fiber is never switched back to, so it hands ASan no fake stack to keep.
void LeaveFiber(Fiber::Impl& f, [[maybe_unused]] bool exiting) {
#if defined(CDD_FIBER_TSAN)
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
#if defined(CDD_FIBER_ASAN)
  __sanitizer_start_switch_fiber(exiting ? nullptr : &f.fake_stack,
                                 f.caller_stack, f.caller_stack_bytes);
#endif
  cdd_sim_fiber_switch(&f.sp, f.caller_sp);
  ArriveOnFiber(f);
}

[[noreturn]] void FiberMain(Fiber::Impl* impl) {
  ArriveOnFiber(*impl);
  try {
    impl->body();
  } catch (...) {
    impl->error = std::current_exception();
  }
  impl->finished = true;
  LeaveFiber(*impl, /*exiting=*/true);
  __builtin_trap();  // a finished fiber is never resumed
}

/// Writes the fiber's first frame onto its stack.
void ArmFiber(Fiber::Impl& f) {
#if defined(CDD_FIBER_ASAN)
  // The previous body's entry frame never returned, so its redzones are
  // still poisoned where the new frames will go.
  ASAN_UNPOISON_MEMORY_REGION(f.stack.get(), f.stack_bytes);
  f.fake_stack = nullptr;
#endif

  // The fiber starts with the resetting thread's FP control state, as a
  // ucontext fiber would.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_control = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_control));

  const std::uint64_t frame[8] = {
      mxcsr | (std::uint64_t{fpu_control} << 32),
      0,                                            // r15
      0,                                            // r14
      reinterpret_cast<std::uint64_t>(&FiberMain),  // r13
      reinterpret_cast<std::uint64_t>(&f),          // r12
      0,                                            // rbx
      0,                                            // rbp: end of chain
      reinterpret_cast<std::uint64_t>(&cdd_sim_fiber_entry)};
  // The entry stub starts with rsp at the 16-byte-aligned top of the stack,
  // so its call leaves FiberMain the ABI's entry alignment.
  const auto top = (reinterpret_cast<std::uintptr_t>(f.stack.get()) +
                    f.stack_bytes) &
                   ~std::uintptr_t{15};
  char* sp = reinterpret_cast<char*>(top) - sizeof frame;
  std::memcpy(sp, frame, sizeof frame);
  f.sp = sp;
}

}  // namespace

#else  // !defined(__x86_64__): glibc ucontext

struct Fiber::Impl {
  ucontext_t ctx{};
  ucontext_t caller{};
  std::unique_ptr<char[]> stack;
  std::size_t stack_bytes = 0;
  std::function<void()> body;
  std::exception_ptr error;
  bool finished = true;
};

namespace {

/// makecontext only passes ints; split a pointer across two of them.
void Trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* impl = reinterpret_cast<Fiber::Impl*>(bits);
  try {
    impl->body();
  } catch (...) {
    impl->error = std::current_exception();
  }
  impl->finished = true;
  // Returning transfers to ctx.uc_link == &impl->caller.
}

void ArmFiber(Fiber::Impl& f) {
  if (getcontext(&f.ctx) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  f.ctx.uc_stack.ss_sp = f.stack.get();
  f.ctx.uc_stack.ss_size = f.stack_bytes;
  f.ctx.uc_link = &f.caller;
  const auto bits = reinterpret_cast<std::uintptr_t>(&f);
  makecontext(&f.ctx, reinterpret_cast<void (*)()>(&Trampoline), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
}

void EnterFiber(Fiber::Impl& f) {
  if (swapcontext(&f.caller, &f.ctx) != 0) {
    throw std::runtime_error("Fiber: swapcontext failed");
  }
}

/// A finished body leaves through uc_link, so only yields come here.
void LeaveFiber(Fiber::Impl& f, bool /*exiting*/) {
  if (swapcontext(&f.ctx, &f.caller) != 0) {
    throw std::runtime_error("Fiber: swapcontext failed (yield)");
  }
}

}  // namespace

#endif  // defined(__x86_64__)

Fiber::Fiber(std::size_t stack_bytes) : impl_(std::make_unique<Impl>()) {
  impl_->stack_bytes = std::max<std::size_t>(stack_bytes, 16 * 1024);
  impl_->stack = std::make_unique_for_overwrite<char[]>(impl_->stack_bytes);
}

Fiber::~Fiber() = default;
Fiber::Fiber(Fiber&&) noexcept = default;
Fiber& Fiber::operator=(Fiber&&) noexcept = default;

void Fiber::Reset(std::function<void()> body) {
  if (!done_) {
    throw std::logic_error("Fiber::Reset while fiber is still running");
  }
  impl_->body = std::move(body);
  impl_->error = nullptr;
  impl_->finished = false;
  done_ = false;
  ArmFiber(*impl_);
}

bool Fiber::Resume() {
  if (done_) {
    throw std::logic_error("Fiber::Resume on a finished fiber");
  }
  EnterFiber(*impl_);
  done_ = impl_->finished;
  return !done_;
}

void Fiber::Yield() { LeaveFiber(*impl_, /*exiting=*/false); }

void Fiber::RethrowIfFailed() {
  if (impl_->error) {
    std::exception_ptr err = impl_->error;
    impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

std::vector<Fiber>& FiberPool::Acquire(std::size_t count) {
  while (fibers_.size() < count) {
    fibers_.emplace_back(stack_bytes_);
  }
  return fibers_;
}

}  // namespace cdd::sim
