#include "cothread/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

#include "support/common.hpp"

#if !defined(__x86_64__)
#error "cothread::Fiber's context switch is written for x86-64 (SysV ABI) only"
#endif

// ASan tracks one stack per OS thread; switching onto a fiber stack without
// telling it makes any no-return path (exception unwind, longjmp)
// "unpoison" memory using the *thread's* stack bounds — a
// stack-buffer-overflow report inside the sanitizer runtime itself. TSan
// likewise keeps one shadow call stack and clock per thread. The fiber-switch
// annotations below hand each sanitizer the right context around every
// switch. They compile to nothing in non-sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define OSIRIS_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define OSIRIS_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSIRIS_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define OSIRIS_TSAN_FIBERS 1
#endif
#endif

#if defined(OSIRIS_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif
#if defined(OSIRIS_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

// osiris_fiber_switch(save_sp, load_sp): push the callee-saved state the
// SysV ABI promises a caller (rbp, rbx, r12-r15, the MXCSR control bits and
// the x87 control word) on the current stack, store the stack pointer to
// *save_sp, switch to load_sp and pop the same frame from there. Everything
// else is caller-saved, so the compiler already spilled whatever it needs
// around the call. A fiber's first frame is built by Fiber::resume to match.
extern "C" void osiris_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .globl osiris_fiber_switch
  .hidden osiris_fiber_switch
  .type osiris_fiber_switch, @function
  .p2align 4
osiris_fiber_switch:
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
  ret
  .size osiris_fiber_switch, .-osiris_fiber_switch
  .popsection
)");

namespace osiris::cothread {
namespace {

thread_local Fiber* g_current = nullptr;

std::size_t page_size() {
  static const auto size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

// Stacks are mmap'd (a guard page plus the usable pages above it), which
// costs a few system calls and a page fault per touched page; a per-thread
// free list of recently released stacks makes a fiber's creation as cheap as
// a switch. Bounded, so a burst of fibers does not pin its stacks forever;
// drained when the thread exits.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    while (count_ > 0) unmap(entries_[--count_]);
  }

  std::byte* acquire(std::size_t size) {
    // Newest first: its pages are the likeliest to be resident and cached.
    for (std::size_t i = count_; i-- > 0;) {
      if (entries_[i].size != size) continue;
      std::byte* base = entries_[i].base;
      entries_[i] = entries_[--count_];
      return base;
    }
    void* m = ::mmap(nullptr, size + page_size(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    if (::mprotect(m, page_size(), PROT_NONE) != 0) OSIRIS_PANIC("fiber guard page");
    return static_cast<std::byte*>(m) + page_size();
  }

  void release(std::byte* base, std::size_t size) {
#if defined(OSIRIS_ASAN_FIBERS)
    // Frames that never returned (the trampoline's) leave poisoned redzones.
    ASAN_UNPOISON_MEMORY_REGION(base, size);
#endif
    if (count_ == kCapacity) {
      unmap({base, size});
      return;
    }
    entries_[count_++] = {base, size};
  }

 private:
  struct Entry {
    std::byte* base;
    std::size_t size;
  };
  static constexpr std::size_t kCapacity = 16;

  static void unmap(Entry e) { ::munmap(e.base - page_size(), e.size + page_size()); }

  Entry entries_[kCapacity] = {};
  std::size_t count_ = 0;
};

thread_local StackCache g_stacks;

}  // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_size)
    : fn_(std::move(fn)),
      stack_size_((stack_size + page_size() - 1) / page_size() * page_size()),
      stack_(g_stacks.acquire(stack_size_)) {
  OSIRIS_ASSERT(fn_ != nullptr);
  OSIRIS_ASSERT(stack_size >= 16 * 1024);
}

Fiber::~Fiber() {
#if defined(OSIRIS_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  // Destroying a suspended fiber abandons its stack without unwinding; the
  // simulator only does this at teardown of a whole OS instance. Heap
  // objects owned by locals stranded on that stack stay allocated until
  // process exit, by design.
#if defined(OSIRIS_ASAN_FIBERS)
  // LSan does not scan mmap'd memory, so it would report those strands as
  // leaks: keep the abandoned stack mapped and make it a root region, which
  // keeps the strands reachable — the ownership story the design tells.
  if (state_ == State::kSuspended) {
    __lsan_register_root_region(stack_, stack_size_);
    return;
  }
#endif
  g_stacks.release(stack_, stack_size_);
}

Fiber* Fiber::current() noexcept { return g_current; }

void Fiber::trampoline() {
  Fiber* self = g_current;
#if defined(OSIRIS_ASAN_FIBERS)
  // First time on this stack: complete the resumer's start_switch and learn
  // the resumer's stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &self->return_bottom_, &self->return_size_);
#endif
  try {
    self->fn_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->state_ = State::kFinished;
#if defined(OSIRIS_ASAN_FIBERS)
  // nullptr fake-stack save: this fiber's stack is dead, let ASan free its
  // fake frames instead of keeping them for a resume that never comes.
  __sanitizer_start_switch_fiber(nullptr, self->return_bottom_, self->return_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->return_tsan_fiber_, 0);
#endif
  // Return to the resumer for the last time; sp_ is never loaded again.
  osiris_fiber_switch(&self->sp_, self->return_sp_);
  OSIRIS_PANIC("resumed a finished fiber");
}

void Fiber::resume() {
  OSIRIS_ASSERT(state_ == State::kReady || state_ == State::kSuspended);
  if (state_ == State::kReady) {
    // The first switch pops this frame: the saved-register slots (zero), the
    // MXCSR and x87 control word (the resumer's, as a thread's first
    // function would inherit them), then "returns" into the trampoline,
    // which thus starts with the stack 16-byte aligned below a zero return
    // address that ends any unwind.
    auto** top = reinterpret_cast<void**>(stack_ + stack_size_);
    top[-1] = nullptr;
    top[-2] = reinterpret_cast<void*>(&Fiber::trampoline);
    for (int slot = 3; slot <= 8; ++slot) top[-slot] = nullptr;  // rbp rbx r12-r15
    const std::uint32_t mxcsr = __builtin_ia32_stmxcsr();
    std::uint16_t fcw = 0;
    asm volatile("fnstcw %0" : "=m"(fcw));
    std::memcpy(top - 9, &mxcsr, sizeof mxcsr);
    std::memcpy(reinterpret_cast<std::byte*>(top - 9) + 4, &fcw, sizeof fcw);
    sp_ = top - 9;
#if defined(OSIRIS_TSAN_FIBERS)
    // Created on first resume and destroyed on finish (below): TSan's switch
    // cost grows with its live contexts, and most fibers are either never
    // resumed or finished long before they are destroyed.
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }
  Fiber* prev = g_current;
  g_current = this;
  state_ = State::kRunning;
#if defined(OSIRIS_ASAN_FIBERS)
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_, stack_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  return_tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  osiris_fiber_switch(&return_sp_, sp_);
#if defined(OSIRIS_ASAN_FIBERS)
  // Back on the resumer's stack (the fiber suspended or finished).
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  g_current = prev;
  if (state_ == State::kRunning) state_ = State::kSuspended;
#if defined(OSIRIS_TSAN_FIBERS)
  if (state_ == State::kFinished) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
#endif
}

void Fiber::suspend() {
  Fiber* self = g_current;
  OSIRIS_ASSERT(self != nullptr);
  self->state_ = State::kSuspended;
#if defined(OSIRIS_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->fake_stack_, self->return_bottom_, self->return_size_);
#endif
#if defined(OSIRIS_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->return_tsan_fiber_, 0);
#endif
  osiris_fiber_switch(&self->sp_, self->return_sp_);
#if defined(OSIRIS_ASAN_FIBERS)
  // Resumed again — possibly from a different thread's stack: refresh the
  // return bounds.
  __sanitizer_finish_switch_fiber(self->fake_stack_, &self->return_bottom_, &self->return_size_);
#endif
  self->state_ = State::kRunning;
}

}  // namespace osiris::cothread
