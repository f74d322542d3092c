// FOM executor golden trace (DESIGN.md §16): the eighth golden pins the
// park/resume interleaving of concurrent cold reads as symbolic events —
// every FomPark names the missing block, every FomResume the re-run message
// — and the determinism tests extend the byte-identity contract to the
// executor: the same schedule twice, and a traced campaign at --jobs=4,
// reproduce the serial bytes exactly with multi-request rollback enabled.
// After an *intentional* change to executor sequencing, regenerate with:
// OSIRIS_REGOLDEN=1 ./osiris_trace_tests && git diff
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign_cli.hpp"
#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "trace_matcher.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;
using trace::EventKind;
using trace_test::expect_absent;
using trace_test::expect_subsequence;
using trace_test::Pat;

namespace {

const std::int32_t kVfs = kernel::kVfsEp.value;
constexpr std::size_t kBytes = 6 * 1024;  // per-file payload: 2 cold blocks

struct FiGuard {
  FiGuard() {
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
  }
  ~FiGuard() { fi::Registry::instance().disarm(); }
};

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<std::uint8_t>(seed + i * 7));
  }
  return v;
}

std::int64_t write_all(ISys& sys, std::int64_t fd, const std::vector<std::byte>& data) {
  return sys.write(fd, std::span<const std::byte>(data.data(), data.size()));
}

/// Write `path` full of `data`, then evict it by streaming a scratch file
/// through the (small) block cache — the same cold-read setup test_fom.cpp
/// uses, so the traced run parks on real misses.
void write_and_evict(ISys& sys, const std::string& path, const std::vector<std::byte>& data,
                     const std::string& scratch) {
  std::int64_t fd = sys.open(path, servers::O_CREAT | servers::O_RDWR | servers::O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write_all(sys, fd, data), static_cast<std::int64_t>(data.size()));
  ASSERT_EQ(sys.close(fd), kernel::OK);
  const std::vector<std::byte> filler = pattern(32 * 1024, 0xAA);
  fd = sys.open(scratch, servers::O_CREAT | servers::O_RDWR | servers::O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write_all(sys, fd, filler), static_cast<std::int64_t>(filler.size()));
  std::vector<std::byte> sink(filler.size());
  ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
  ASSERT_EQ(sys.read(fd, std::span<std::byte>(sink.data(), sink.size())),
            static_cast<std::int64_t>(sink.size()));
  ASSERT_EQ(sys.close(fd), kernel::OK);
}

struct TraceRun {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::vector<trace::Event> events;      // full merged timeline
  std::vector<trace::Event> fom_events;  // FomPark / FomResume / FomAbort only
  std::string fom_text;                  // unsequenced text of the FOM events
  std::string full_text;                 // sequenced text of everything
};

/// The interleaving scenario every test here drives: three 6 KiB files made
/// cold, then three forked clients reading them back concurrently, so the
/// executor holds several parked requests at once.
TraceRun run_interleaved(bool fom) {
  fi::Registry::instance().reset_counts();
  os::OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = 1u << 16;
  cfg.cache_blocks = 4;
  cfg.vfs_fom = fom;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();

  constexpr int kClients = 3;
  TraceRun r;
  r.outcome = inst.run([&](ISys& sys) {
    for (int c = 0; c < kClients; ++c) {
      write_and_evict(sys, "/tmp/tf" + std::to_string(c),
                      pattern(kBytes, static_cast<std::uint8_t>(c + 1)), "/tmp/tf-scratch");
    }
    std::vector<std::int64_t> pids;
    for (int c = 0; c < kClients; ++c) {
      pids.push_back(sys.fork([c](ISys& child) {
        std::vector<std::byte> buf(kBytes);
        const std::int64_t fd = child.open("/tmp/tf" + std::to_string(c), servers::O_RDONLY);
        if (fd < 0) child.exit(1);
        std::size_t got = 0;
        while (got < kBytes) {
          const std::int64_t n =
              child.read(fd, std::span<std::byte>(buf.data() + got, kBytes - got));
          if (n <= 0) child.exit(2);
          got += static_cast<std::size_t>(n);
        }
        child.exit(0);
      }));
    }
    for (const std::int64_t pid : pids) {
      std::int64_t status = -1;
      if (sys.wait_pid(pid, &status) != pid || status != 0) sys.exit(10);
    }
  });

  const trace::Tracer& tracer = *inst.tracer();
  r.events = tracer.merged();
  r.fom_events = trace_test::filter_events(
      r.events, {EventKind::kFomPark, EventKind::kFomResume, EventKind::kFomAbort});
  r.fom_text = trace::format_text_unsequenced(r.fom_events, tracer);
  r.full_text = trace::format_text(r.events, tracer);
  return r;
}

}  // namespace

// --- The eighth golden: concurrent cold reads park and resume symbolically --
TEST(TraceFom, InterleavedMissesEmitParkResumeGolden) {
  FiGuard guard;
  const TraceRun r = run_interleaved(/*fom=*/true);
  ASSERT_EQ(r.outcome, OsInstance::Outcome::kCompleted);

  // At least one park followed by its resume; a fault-free run never aborts.
  EXPECT_TRUE(expect_subsequence(r.events, {
                  Pat{EventKind::kFomPark, kVfs},
                  Pat{EventKind::kFomResume, kVfs},
              }));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kFomAbort}));
  // Parking is what closes the window under the executor: the legacy yield
  // cause must not appear on the cold-read path.
  ASSERT_GE(r.fom_events.size(), 4u);  // ≥2 park/resume pairs = interleaving
  EXPECT_TRUE(trace_test::check_golden("fom_interleave.trace", r.fom_text));
}

// --- Determinism: the executor preserves full-trace byte-identity -----------
TEST(TraceFom, IdenticalInterleavedScenarioProducesByteIdenticalFullTrace) {
  FiGuard guard;
  const TraceRun a = run_interleaved(/*fom=*/true);
  const TraceRun b = run_interleaved(/*fom=*/true);
  ASSERT_FALSE(a.full_text.empty());
  EXPECT_EQ(a.full_text, b.full_text);
}

// --- Flag off: no executor events, so the seven existing goldens are safe ---
TEST(TraceFom, ExecutorOffEmitsNoFomEvents) {
  FiGuard guard;
  const TraceRun r = run_interleaved(/*fom=*/false);
  ASSERT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kFomPark}));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kFomResume}));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kFomAbort}));
}

// --- Campaign determinism with multi-request rollback enabled ---------------
// The --jobs=N contract from test_campaign_parallel.cpp, re-pinned with the
// FOM executor on and the cache small enough that suite traffic parks: every
// injection's trace at --jobs=4 is the exact bytes of the serial run.
TEST(TraceFom, CampaignTracesByteIdenticalAcrossJobsWithFomExecutor) {
  FiGuard guard;
  std::vector<workload::Injection> plan = workload::plan_failstop(/*points_per_site=*/1);
  // Thin for runtime; coverage lives in the campaign suite.
  if (plan.size() > 6) plan = bench::every_nth(plan, plan.size() / 6);
  ASSERT_GE(plan.size(), 4u);

  std::vector<std::string> ref_traces;
  workload::CampaignOptions serial;
  serial.jobs = 1;
  serial.traces = &ref_traces;
  serial.vfs_fom = true;
  serial.cache_blocks = 4;

  std::vector<std::string> par_traces;
  workload::CampaignOptions parallel = serial;
  parallel.jobs = 4;
  parallel.traces = &par_traces;

  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref_traces.size(), plan.size());
  ASSERT_EQ(par_traces.size(), plan.size());
  bool any_park = false;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " classified differently under --jobs=4";
    EXPECT_EQ(ref_traces[i], par_traces[i])
        << "injection " << i << " traced differently under --jobs=4";
    if (ref_traces[i].find("FomPark") != std::string::npos) any_park = true;
  }
  // The contract is only interesting if the executor actually ran: at least
  // one injection's suite traffic parked mid-flight.
  EXPECT_TRUE(any_park);
}
