// The scheduler loop's hang rules (OsInstance::run).
//
// A run is hung when it deadlocks, when max_idle_iters pass without user
// progress, when kMaxStalledSteps consecutive steps neither advance the
// virtual clock nor resume init, or, as a backstop, when max_steps run out.
// These tests pin the stall rule against the campaign runs that motivated
// it: the Enhanced fail-stop wedges must end early, and the longest
// legitimate stall must stay an order of magnitude below the limit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "os/instance.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;

namespace {

/// Just above the longest stalled stretch measured in a completed campaign
/// run (10,007 steps, EDFI plan index 169): the suite's 10,000-iteration
/// sigpending polls.
constexpr std::uint64_t kLegitimateStallBound = 11'000;

/// One campaign injection under the Enhanced policy, with its step counters.
workload::RunClass run_injected(const workload::Injection& inj, workload::RunSteps& steps) {
  return workload::run_one_injection(seep::Policy::kEnhanced, inj, nullptr, {}, &steps);
}

/// The run's suite driver completed: the classes a hung run cannot get.
bool completed(workload::RunClass c) {
  return c == workload::RunClass::kPass || c == workload::RunClass::kFail;
}

const std::vector<workload::Injection>& failstop_plan() {
  static const std::vector<workload::Injection> plan = workload::plan_failstop();
  return plan;
}

}  // namespace

TEST(RunLoop, WedgedFailstopRunEndsAtTheStallLimit) {
  // Plan index 252: t_sigkill_child's child outlives a kill answered with
  // E_CRASH and spins on getpid while init stays blocked. The run ends on
  // the stall rule and classifies as a crash, as it did at the step budget.
  const auto& plan = failstop_plan();
  ASSERT_GT(plan.size(), 252u);
  workload::RunSteps r;
  EXPECT_EQ(run_injected(plan[252], r), workload::RunClass::kCrash);
  const std::uint64_t limit = os::OsConfig::kMaxStalledSteps;
  EXPECT_EQ(r.longest_stall, limit);
  EXPECT_LE(r.steps, 2 * limit);
}

TEST(RunLoop, InitDrivenFrozenClockLoopCompletes) {
  // Init's own syscall loop freezes the clock for longer than the stall
  // limit (unixbench's syscall row does), yet init resuming is progress.
  const std::uint64_t limit = os::OsConfig::kMaxStalledSteps;
  OsInstance inst;
  inst.boot();
  Tick before = 0;
  Tick after = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    before = inst.clock().now();
    for (std::uint64_t i = 0; i < 2 * limit + 1000; ++i) sys.getpid();
    after = inst.clock().now();
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(before, after) << "the loop must run with a frozen clock";
  EXPECT_GT(inst.steps(), 2 * limit);
  EXPECT_LT(inst.longest_stall(), limit);
}

TEST(RunLoop, LegitimateStallsStayFarBelowTheLimit) {
  // The longest stalls of runs that complete: fail-stop index 253 and EDFI
  // index 169. The limit keeps at least an 8x margin above them.
  workload::RunSteps failstop;
  EXPECT_TRUE(completed(run_injected(failstop_plan().at(253), failstop)));
  EXPECT_LE(failstop.longest_stall, kLegitimateStallBound);

  const std::vector<workload::Injection> edfi = workload::plan_edfi();
  workload::RunSteps e;
  EXPECT_TRUE(completed(run_injected(edfi.at(169), e)));
  EXPECT_LE(e.longest_stall, kLegitimateStallBound);

  EXPECT_GE(os::OsConfig::kMaxStalledSteps, 8 * kLegitimateStallBound);
}

TEST(RunLoop, StepBudgetStillEndsTheRunAsHung) {
  // max_steps is the backstop: an init that never finishes is exempt from
  // the stall rule, yet still declared hung once the step budget runs out.
  os::OsConfig cfg;
  cfg.max_steps = 5'000;
  OsInstance inst(cfg);
  inst.boot();
  const auto outcome = inst.run([](ISys& sys) {
    for (;;) sys.getpid();
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kHung);
  EXPECT_EQ(inst.steps(), cfg.max_steps + 1);
}
