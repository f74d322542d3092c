// Cooperative fibers (register-only context switch, x86-64).
//
// OSIRIS uses fibers in two places, matching the paper's prototype:
//  - every simulated user process runs as a fiber, so the 89 test-suite
//    programs and the unixbench workloads are written as straight-line code
//    whose syscalls suspend until the server's reply arrives;
//  - the VFS server is multithreaded (paper SV): worker threads block on
//    disk I/O, and the recovery window is forcibly closed on yield (SIV-E).
//
// A switch saves and restores only the state the SysV ABI preserves across
// a call (see fiber.cpp); host signal masks are never touched. Stacks are
// mmap'd with a PROT_NONE guard page below them, so an overflow faults
// instead of scribbling over the heap, and are recycled per thread.
//
// Exceptions never propagate across a context switch: anything escaping the
// fiber body is captured as std::exception_ptr and handed to the resumer,
// which decides whether to rethrow on its own stack (this is how a fail-stop
// fault inside a VFS worker reaches the kernel's dispatch boundary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

namespace osiris::cothread {

class Fiber {
 public:
  enum class State : std::uint8_t { kReady, kRunning, kSuspended, kFinished };

  explicit Fiber(std::function<void()> fn, std::size_t stack_size = 128 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch into the fiber (start or continue it). Returns when the fiber
  /// suspends or finishes. Must not be called from inside a fiber that is
  /// already on the resume chain.
  void resume();

  /// Called from inside the fiber: switch back to the resumer.
  static void suspend();

  /// The fiber currently executing on this thread, or nullptr on the main
  /// context.
  static Fiber* current() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFinished; }

  /// Exception that escaped the fiber body during the last resume(), if any.
  /// Fetching it clears it.
  [[nodiscard]] std::exception_ptr take_exception() noexcept {
    auto e = pending_exception_;
    pending_exception_ = nullptr;
    return e;
  }

 private:
  static void trampoline();

  std::function<void()> fn_;
  std::size_t stack_size_;  // usable bytes, page-rounded, above the guard page
  std::byte* stack_;        // lowest usable byte; the guard page sits below it
  void* sp_ = nullptr;         // this fiber's saved stack pointer
  void* return_sp_ = nullptr;  // the resumer's saved stack pointer
  State state_ = State::kReady;
  std::exception_ptr pending_exception_;

  // Sanitizer fiber-switch bookkeeping (see fiber.cpp): this fiber's saved
  // ASan fake stack, the bounds of the stack resume() was called from, and
  // the TSan contexts of this fiber and of its resumer. Unused — but kept,
  // for one ABI regardless of flags — in non-sanitizer builds.
  void* fake_stack_ = nullptr;
  const void* return_bottom_ = nullptr;
  std::size_t return_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* return_tsan_fiber_ = nullptr;
};

}  // namespace osiris::cothread
