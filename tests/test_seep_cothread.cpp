// Unit tests: SEEP classification/policies/window state machine, and the
// cooperative thread library.
#include <gtest/gtest.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <atomic>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "cothread/fiber.hpp"
#include "seep/policy.hpp"
#include "seep/seep.hpp"
#include "seep/window.hpp"
#include "servers/protocol.hpp"
#include "support/worker_pool.hpp"

using namespace osiris;

// --- classification ---------------------------------------------------

TEST(Classification, UnknownTypesGetConservativeDefault) {
  seep::Classification c;
  const auto t = c.get(0xdeadbeef);
  EXPECT_EQ(t.seep, seep::SeepClass::kStateModifying);
  EXPECT_TRUE(t.replyable);
}

TEST(Classification, SetAndGet) {
  seep::Classification c;
  c.set(0x42, seep::SeepClass::kNonStateModifying, false);
  EXPECT_EQ(c.get(0x42).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_FALSE(c.get(0x42).replyable);
}

TEST(Classification, SystemTableCoversKeyMessages) {
  const seep::Classification c = servers::build_classification();
  EXPECT_GT(c.size(), 40u);
  // The classifications Table I's shape depends on:
  EXPECT_EQ(c.get(servers::DS_NOTIFY_SUB).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(c.get(servers::VFS_PM_EXEC).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(c.get(servers::VM_INFO).seep, seep::SeepClass::kNonStateModifying);
  EXPECT_EQ(c.get(servers::RS_PING).seep, seep::SeepClass::kStateModifying);
  EXPECT_EQ(c.get(servers::VM_FORK_AS).seep, seep::SeepClass::kStateModifying);
  EXPECT_FALSE(c.get(servers::PM_SIG_NOTIFY).replyable);
}

// --- policies ----------------------------------------------------------

TEST(Policy, WindowUsage) {
  EXPECT_FALSE(seep::policy_uses_windows(seep::Policy::kStateless));
  EXPECT_FALSE(seep::policy_uses_windows(seep::Policy::kNaive));
  EXPECT_TRUE(seep::policy_uses_windows(seep::Policy::kPessimistic));
  EXPECT_TRUE(seep::policy_uses_windows(seep::Policy::kEnhanced));
}

TEST(Policy, CloseRules) {
  using seep::Policy;
  using seep::SeepClass;
  EXPECT_TRUE(seep::policy_closes_window(Policy::kPessimistic, SeepClass::kNonStateModifying));
  EXPECT_TRUE(seep::policy_closes_window(Policy::kPessimistic, SeepClass::kStateModifying));
  EXPECT_FALSE(seep::policy_closes_window(Policy::kEnhanced, SeepClass::kNonStateModifying));
  EXPECT_TRUE(seep::policy_closes_window(Policy::kEnhanced, SeepClass::kStateModifying));
  EXPECT_FALSE(seep::policy_closes_window(Policy::kStateless, SeepClass::kStateModifying));
}

// --- window state machine -----------------------------------------------

namespace {
struct WindowFixture : ::testing::Test {
  ckpt::Context ctx{ckpt::Mode::kWindowOnly};
};
}  // namespace

TEST_F(WindowFixture, OpenTakesCheckpointAndEnablesLogging) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  int v = 0;
  ctx.log().record(&v, sizeof v);  // stale entry from "last request"
  w.open();
  EXPECT_TRUE(w.is_open());
  EXPECT_TRUE(ctx.window_open());
  EXPECT_TRUE(ctx.log().empty());  // checkpoint = log reset
}

TEST_F(WindowFixture, EnhancedSurvivesNonStateModifyingSeep) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kNonStateModifying);
  EXPECT_TRUE(w.is_open());
  w.on_outbound(seep::SeepClass::kStateModifying);
  EXPECT_FALSE(w.is_open());
  EXPECT_FALSE(ctx.window_open());
  EXPECT_EQ(w.stats().closed_by_seep, 1u);
}

TEST_F(WindowFixture, PessimisticClosesOnAnySeep) {
  seep::Window w(seep::Policy::kPessimistic, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kNonStateModifying);
  EXPECT_FALSE(w.is_open());
}

TEST_F(WindowFixture, YieldForcesClose) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.on_yield();
  EXPECT_FALSE(w.is_open());
  EXPECT_EQ(w.stats().closed_by_yield, 1u);
}

TEST_F(WindowFixture, CloseDiscardsUndoLog) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  int v = 0;
  ctx.log().record(&v, sizeof v);
  w.on_outbound(seep::SeepClass::kStateModifying);
  EXPECT_TRUE(ctx.log().empty());  // past the window the checkpoint is useless
}

TEST_F(WindowFixture, StatelessPolicyNeverOpens) {
  seep::Window w(seep::Policy::kStateless, ctx);
  w.open();
  EXPECT_FALSE(w.is_open());
}

TEST_F(WindowFixture, ProbeHitsSplitByWindowState) {
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.probe_hit();
  w.probe_hit();
  w.on_outbound(seep::SeepClass::kStateModifying);
  w.probe_hit();
  EXPECT_EQ(w.stats().probe_hits_inside, 2u);
  EXPECT_EQ(w.stats().probe_hits_outside, 1u);
  EXPECT_NEAR(w.stats().coverage(), 2.0 / 3.0, 1e-9);
}

// --- fibers -----------------------------------------------------------

TEST(Fiber, RunsToCompletion) {
  int steps = 0;
  cothread::Fiber f([&] { steps = 42; });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(steps, 42);
}

TEST(Fiber, SuspendAndResume) {
  std::vector<int> order;
  cothread::Fiber f([&] {
    order.push_back(1);
    cothread::Fiber::suspend();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(cothread::Fiber::current(), nullptr);
  cothread::Fiber* seen = nullptr;
  cothread::Fiber f([&] { seen = cothread::Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(cothread::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionIsCapturedNotPropagated) {
  cothread::Fiber f([] { throw std::runtime_error("inside fiber"); });
  f.resume();  // must not throw on the resumer's stack
  EXPECT_TRUE(f.finished());
  auto e = f.take_exception();
  ASSERT_TRUE(e != nullptr);
  EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
  EXPECT_EQ(f.take_exception(), nullptr);  // fetching clears
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kN = 16;
  std::vector<std::unique_ptr<cothread::Fiber>> fibers;
  std::vector<int> counters(kN, 0);
  for (int i = 0; i < kN; ++i) {
    fibers.push_back(std::make_unique<cothread::Fiber>([&counters, i] {
      for (int round = 0; round < 5; ++round) {
        ++counters[i];
        cothread::Fiber::suspend();
      }
    }));
  }
  for (int round = 0; round < 5; ++round) {
    for (auto& f : fibers) f->resume();
  }
  for (int i = 0; i < kN; ++i) EXPECT_EQ(counters[i], 5);
}

TEST(Fiber, NestedResumeFromInsideFiber) {
  // A fiber resuming another fiber (as VFS does when a worker runs while a
  // user fiber's syscall chain is active elsewhere).
  int inner_ran = 0;
  cothread::Fiber inner([&] { inner_ran = 1; });
  cothread::Fiber outer([&] {
    inner.resume();
    EXPECT_EQ(cothread::Fiber::current(), &outer);
  });
  outer.resume();
  EXPECT_EQ(inner_ran, 1);
  EXPECT_TRUE(outer.finished());
}

TEST(Fiber, FloatingPointControlStateIsPerContext) {
  // fesetround writes both the x87 control word and MXCSR; each side of a
  // switch keeps its own.
  const int outer = std::fegetround();
  const unsigned outer_mxcsr = _mm_getcsr();
  int inside_after_resume = -1;
  unsigned inside_mxcsr = 0;
  cothread::Fiber f([&] {
    std::fesetround(FE_UPWARD);
    cothread::Fiber::suspend();
    inside_after_resume = std::fegetround();
    inside_mxcsr = _mm_getcsr();
  });
  f.resume();
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(_mm_getcsr(), outer_mxcsr);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(inside_after_resume, FE_UPWARD);
  EXPECT_EQ(inside_mxcsr & _MM_ROUND_MASK, static_cast<unsigned>(_MM_ROUND_UP));
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(_mm_getcsr(), outer_mxcsr);
}

TEST(Fiber, StackIsSixteenByteAlignedAtEntry) {
  // The compiler assumes the ABI's alignment: an aligned SSE local lands on a
  // 16-byte boundary only if the fiber entered with the stack aligned, and
  // printf of a long double spills with movaps (it faults when misaligned).
  std::uintptr_t addr = 1;
  char text[32] = {};
  cothread::Fiber f([&] {
    volatile __m128 v = _mm_set1_ps(1.0f);
    addr = reinterpret_cast<std::uintptr_t>(&v);
    std::snprintf(text, sizeof text, "%Lf", static_cast<long double>(v[0]) / 4);
  });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(addr % 16, 0u);
  EXPECT_STREQ(text, "0.250000");
}

TEST(Fiber, ExceptionCaughtInsideFiberAfterSwitch) {
  bool caught = false;
  cothread::Fiber f([&] {
    cothread::Fiber::suspend();
    try {
      throw std::runtime_error("caught inside");
    } catch (const std::runtime_error&) {
      caught = true;
    }
    cothread::Fiber::suspend();
    throw std::logic_error("escapes");
  });
  f.resume();
  f.resume();
  EXPECT_TRUE(caught);
  EXPECT_EQ(f.take_exception(), nullptr);
  f.resume();
  EXPECT_TRUE(f.finished());
  auto e = f.take_exception();
  ASSERT_TRUE(e != nullptr);
  EXPECT_THROW(std::rethrow_exception(e), std::logic_error);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

TEST(Fiber, DestroyedSuspendedFiberStackIsReused) {
  // A suspended fiber leaves a marker 4 KiB below its entry frame, then is
  // destroyed. The next fiber gets the same stack back from the free list —
  // marker still there — rather than a fresh, zero-filled mapping.
  constexpr std::uint64_t kMarker = 0x0515c0de0515c0deu;
  volatile std::uint64_t* marker = nullptr;
  auto first = std::make_unique<cothread::Fiber>([&marker] {
    volatile std::uint64_t deep[512];
    deep[0] = kMarker;
    marker = &deep[0];
    cothread::Fiber::suspend();
  });
  first->resume();
  ASSERT_EQ(first->state(), cothread::Fiber::State::kSuspended);
  first.reset();

  volatile std::uint64_t* frame = nullptr;
  std::uint64_t seen = 0;
  cothread::Fiber second([&] {
    volatile std::uint64_t local = 0;
    frame = &local;
    // Below this frame's stack pointer, inside the stack's mapping.
    if (!kAsan) seen = *marker;
  });
  second.resume();
  if (kAsan) {
    // An abandoned stack stays mapped as an LSan root region instead.
    EXPECT_FALSE(frame > marker && frame - marker < 1024);
  } else {
    EXPECT_TRUE(frame > marker && frame - marker < 1024);
    EXPECT_EQ(seen, kMarker);
  }
}

TEST(Fiber, WorkerThreadsKeepTheirOwnCurrentFiber) {
  constexpr std::size_t kThreads = 2;
  constexpr int kFibers = 4;
  constexpr int kRounds = 20000;
  std::vector<int> bleeds(kThreads, 0);
  std::vector<int> steps(kThreads, 0);
  std::atomic<std::size_t> started{0};
  support::WorkerPool::run_indexed(kThreads, kThreads, [&](std::size_t t) {
    // Rendezvous: both threads switch fibers at the same time.
    started.fetch_add(1);
    while (started.load() < kThreads) std::this_thread::yield();
    std::vector<std::unique_ptr<cothread::Fiber>> fibers;
    fibers.reserve(kFibers);  // each fiber holds its own slot's address
    for (int i = 0; i < kFibers; ++i) {
      auto* slot = &fibers.emplace_back();
      *slot = std::make_unique<cothread::Fiber>([&, slot, t] {
        for (int round = 0; round < kRounds; ++round) {
          if (cothread::Fiber::current() != slot->get()) ++bleeds[t];
          ++steps[t];
          cothread::Fiber::suspend();
        }
      });
    }
    for (int round = 0; round <= kRounds; ++round) {
      for (auto& f : fibers) {
        f->resume();
        if (cothread::Fiber::current() != nullptr) ++bleeds[t];
      }
    }
    for (auto& f : fibers) EXPECT_TRUE(f->finished());
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bleeds[t], 0);
    EXPECT_EQ(steps[t], kFibers * kRounds);
  }
}

// Deep enough recursion to run off any fiber stack; the volatile frame and
// the use after the call keep it from becoming a loop.
volatile int g_recursion_floor = -1;
int recurse_forever(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == g_recursion_floor) return frame[0];
  return recurse_forever(depth + 1) + frame[0];
}

// The guard page of the overflowing fiber's stack, and a SIGSEGV handler
// that lets only a fault inside it kill the process with SIGSEGV.
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;
void on_overflow_segv(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  if (addr < g_guard_lo || addr >= g_guard_hi) _exit(3);
  // SA_RESETHAND restored the default action: the retried store kills the
  // process with SIGSEGV.
}

void overflow_fiber_stack() {
  static char alt_stack[64 * 1024];  // the fiber's own stack is exhausted
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = on_overflow_segv;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESETHAND;
  sigaction(SIGSEGV, &sa, nullptr);

  constexpr std::uintptr_t kStack = 128 * 1024;
  cothread::Fiber f(
      [] {
        // The stack's top is the page boundary just above the entry frame;
        // the guard page lies one stack size below it.
        volatile int entry = 0;
        const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
        const std::uintptr_t top = (reinterpret_cast<std::uintptr_t>(&entry) | (page - 1)) + 1;
        g_guard_hi = top - kStack;
        g_guard_lo = g_guard_hi - page;
        (void)recurse_forever(0);
      },
      kStack);
  f.resume();
}

TEST(FiberDeathTest, StackOverflowFaultsOnGuardPage) {
  EXPECT_EXIT(overflow_fiber_stack(), testing::KilledBySignal(SIGSEGV), "");
}
