// osbench: the repository benchmark program.
//
// One invocation runs one workload for a host-time budget and prints, as its
// last stdout line, one JSON object {correct, attempted, failed, metrics}.
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer ledger. README.md beside this file says
// why each workload exists and which layer metric should move which
// end-to-end metric on which workload.
//
// Three rules hold for every workload:
//   - fixed simulated work: a repetition is a fixed request count (serve-*)
//     or a fixed injection plan (campaign), never a host deadline; the host
//     budget only decides how many identical repetitions run, and every
//     repetition must reproduce the first one's simulated-statistics digest;
//   - host time is the simulator thread's CPU time (wall time is printed
//     beside it);
//   - one host thread: the 32 clients are IClient objects inside this
//     thread, and the campaign runs its injections serially.
//
// The simulator is driven only through its public API: OsConfig, Kernel
// send/grant/dispatch_pending, VirtualClock::advance_to_next, a crash
// handler wrapping Engine::on_crash, stats accessors, and
// workload::plan_failstop/run_one_injection.
#include <signal.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "servers/fom.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;

namespace {

// ---------------------------------------------------------------------------
// Host clocks

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t span_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Host-speed reference. On a shared host the CPU time of a fixed piece of
// work drifts by tens of percent over tens of seconds (other tenants on the
// same cores, caches and memory). Untraced serving runs therefore time this
// fixed reference kernel right after every repetition and scale the
// repetition's CPU time by kReferenceCpuS / measured reference time: their
// end-to-end times are CPU seconds on a host that runs the reference in
// kReferenceCpuS. The kernel lives in the benchmark, so a change to the
// simulator cannot move it. (The campaign samples the host's speed inside
// its run instead; see the sampler below.)

/// Reference CPU time on the host the baseline was measured on
/// (baseline.json); the scale's fixed point, not a tuning knob.
constexpr double kReferenceCpuS = 0.027;

std::uint64_t g_reference_sink = 0;

/// The kinds of operation the simulator spends its time on: ordered and
/// hashed maps, std::function calls, small heap blocks, and block copies and
/// compares over a buffer larger than the caches.
double reference_cpu() {
  static const std::vector<std::byte> buf = [] {
    std::vector<std::byte> b(16u << 20);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::byte>(i * 131 >> 3);
    return b;
  }();
  constexpr std::size_t kBlock = 8192;
  const double t0 = cpu_now();
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  const std::function<std::uint64_t(std::uint64_t)> mix = [](std::uint64_t x) {
    return x * 0x9e3779b97f4a7c15ULL + 1;
  };
  std::vector<std::byte> block(kBlock);
  Rng rng(0x5eed);
  std::uint64_t acc = 0;
  for (int i = 0; i < 24'000; ++i) {
    const std::uint64_t k = rng.below(16384);
    ordered[k] = mix(k);
    hashed[k ^ 0x55] = k;
    if (i % 3 == 0) ordered.erase(rng.below(16384));
    if (const auto it = hashed.find(rng.below(16384)); it != hashed.end()) acc += it->second;
    const std::vector<std::byte> small(64 + (k & 511));
    const std::size_t off = (k * kBlock) % (buf.size() - kBlock);
    std::memcpy(block.data(), buf.data() + off, kBlock);
    acc += small.size() + (std::memcmp(block.data(), buf.data() + (off ^ 4096), 256) != 0);
  }
  g_reference_sink += acc;
  return cpu_now() - t0;
}

// In-run host-speed sampler (campaign). A campaign repetition is dominated
// by one ~15 s hang, so a reference timed beside it cannot see a slow host
// phase inside it. Instead a thread-CPU-time timer interrupts the simulator
// every kSampleEveryNs of CPU time, and the signal handler times a short
// sample kernel right there; the repetition's CPU time is scaled by
// kSampleRefS / mean sample time. The kernel is what a wedged run's fiber
// switches spend their system time on: signal-mask system calls. Its time
// tracked the hang's more closely than kernels that add dependent loads
// (README.md). It allocates nothing and touches no state of the simulator,
// so it is async-signal-safe and leaves every simulated statistic
// unchanged.

/// Sample kernel CPU time on the host the baseline was measured on
/// (baseline.json); the scale's fixed point, not a tuning knob.
constexpr double kSampleRefS = 50e-6;
constexpr long kSampleEveryNs = 20'000'000;
constexpr std::size_t kMaxSamples = 8192;

struct Sampler {
  std::array<double, kMaxSamples> s{};
  std::size_t n = 0;
  bool ready = false;
  timer_t timer{};
};
Sampler g_sampler;

void on_sample_tick(int) {
  if (g_sampler.n == kMaxSamples) return;
  const int saved_errno = errno;
  const double t0 = cpu_now();
  sigset_t cur;
  sigemptyset(&cur);
  for (int i = 0; i < 160; ++i) {
    sigprocmask(SIG_BLOCK, nullptr, &cur);
    sigprocmask(SIG_SETMASK, &cur, nullptr);
  }
  g_sampler.s[g_sampler.n++] = cpu_now() - t0;
  errno = saved_errno;
}

/// Arms the sampler; samples land in g_sampler.s until stop_sampler().
void start_sampler() {
  if (!g_sampler.ready) {
    g_sampler.ready = true;
    struct sigaction sa {};
    sa.sa_handler = on_sample_tick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigevent sev{};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (sigaction(SIGPROF, &sa, nullptr) != 0 ||
        timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &g_sampler.timer) != 0) {
      std::perror("osbench: host-speed sampler");
      std::exit(1);
    }
  }
  g_sampler.n = 0;
  itimerspec its{};
  its.it_value.tv_nsec = kSampleEveryNs;
  its.it_interval.tv_nsec = kSampleEveryNs;
  timer_settime(g_sampler.timer, 0, &its, nullptr);
}

/// Disarms the sampler and returns its samples.
std::vector<double> stop_sampler() {
  itimerspec off{};
  timer_settime(g_sampler.timer, 0, &off, nullptr);
  return {g_sampler.s.begin(), g_sampler.s.begin() + static_cast<std::ptrdiff_t>(g_sampler.n)};
}

// ---------------------------------------------------------------------------
// Span ledger (traced runs only). Spans are kept in memory and written out
// when the run ends; a null ledger makes every SpanScope a single branch.

enum class SpanKind : std::uint8_t {
  kPhase,      // the timed phase of one repetition (root)
  kBoot,       // OsInstance construction + boot()
  kDispatch,   // Kernel::dispatch_pending()
  kClock,      // VirtualClock::advance_to_next()
  kCrash,      // Engine::on_crash, via the crash-handler wrapper
  kClient,     // the benchmark's own client code (arrival / reply handling)
  kInjection,  // workload::run_one_injection()
};
constexpr const char* kSpanNames[] = {"bench.phase", "os.boot",      "kernel.dispatch",
                                      "support.clock", "recovery.on_crash", "bench.client",
                                      "workload.injection"};
constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kPhase;
  std::int16_t client = -1;  // request spans: client id
  std::uint8_t tag = 0;      // injection spans: RunClass
  std::uint64_t seq = 0;     // request spans: the client's request sequence number
};

struct Ledger {
  std::vector<Span> spans;
  std::vector<std::uint32_t> stack;

  std::uint32_t open(SpanKind kind, int client, std::uint64_t seq) {
    Span s;
    s.kind = kind;
    s.client = static_cast<std::int16_t>(client);
    s.seq = seq;
    s.parent = stack.empty() ? kNoParent : stack.back();
    const auto idx = static_cast<std::uint32_t>(spans.size());
    stack.push_back(idx);
    s.start_ns = span_clock_ns();
    spans.push_back(s);
    return idx;
  }
  void close() {
    spans[stack.back()].end_ns = span_clock_ns();
    stack.pop_back();
  }
};

Ledger* g_ledger = nullptr;

class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, int client = -1, std::uint64_t seq = 0)
      : ledger_(g_ledger) {
    if (ledger_ != nullptr) idx_ = ledger_->open(kind, client, seq);
  }
  ~SpanScope() {
    if (ledger_ != nullptr) ledger_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_tag(std::uint8_t tag) {
    if (ledger_ != nullptr) ledger_->spans[idx_].tag = tag;
  }

 private:
  Ledger* ledger_;
  std::uint32_t idx_ = 0;
};

/// Per-kind self time: span duration minus the part its child spans cover.
struct SelfTimes {
  std::array<double, 7> self_s{};
};

SelfTimes self_times(const Ledger& l) {
  std::vector<std::int64_t> child_ns(l.spans.size(), 0);
  for (const Span& s : l.spans) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  SelfTimes t;
  for (std::size_t i = 0; i < l.spans.size(); ++i) {
    const Span& s = l.spans[i];
    t.self_s[static_cast<std::size_t>(s.kind)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return t;
}

void write_spans(const Ledger& l, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "osbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "# id name start_ns end_ns parent client seq tag\n");
  const std::int64_t t0 = l.spans.empty() ? 0 : l.spans.front().start_ns;
  for (std::size_t i = 0; i < l.spans.size(); ++i) {
    const Span& s = l.spans[i];
    std::fprintf(f, "%zu %s %lld %lld %lld %d %llu %u\n", i,
                 kSpanNames[static_cast<std::size_t>(s.kind)],
                 static_cast<long long>(s.start_ns - t0), static_cast<long long>(s.end_ns - t0),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent), s.client,
                 static_cast<unsigned long long>(s.seq), s.tag);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Small statistics helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 1]).
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// FNV-1a over 64-bit words: the determinism digest.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// ---------------------------------------------------------------------------
// Simulated-statistics snapshot. Every field is a count the simulator keeps
// deterministically; the timed phase reports end-minus-start deltas.

struct Counters {
  // kernel
  std::uint64_t messages = 0, dispatches = 0, nested_calls = 0, client_replies = 0;
  std::uint64_t crashes = 0, safecopy_bytes = 0, grant_bypass_bytes = 0, grants = 0;
  std::uint64_t queue_high_water = 0;
  // seep (summed over components)
  std::uint64_t windows = 0, closed_by_seep = 0, closed_by_yield = 0;
  std::uint64_t probes_inside = 0, probes_outside = 0;
  // ckpt (summed over components)
  std::uint64_t undo_records = 0, undo_bytes = 0, dup_skips = 0, partial_rollbacks = 0;
  std::uint64_t page_records = 0, page_bytes = 0, compacted_bytes = 0;
  std::uint64_t delta_restart_bytes = 0, full_copy_bytes = 0, max_log_bytes = 0;
  // servers: VFS FOM executor
  std::uint64_t fom_parks = 0, fom_retries = 0, fom_sync_fallbacks = 0;
  std::uint64_t fom_in_flight_high_water = 0, fom_wait_ticks = 0;
  // fs
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0, disk_reads = 0, disk_writes = 0;
  // recovery
  std::uint64_t recoveries = 0, error_replies = 0, quarantines = 0, transient = 0,
                recurring = 0, shutdowns = 0;
  std::uint64_t tick = 0;
};

Counters snapshot(os::OsInstance& inst) {
  Counters c;
  const kernel::KernelStats& ks = inst.kern().stats();
  c.messages = ks.messages_queued;
  c.dispatches = ks.server_dispatches;
  c.nested_calls = ks.nested_calls;
  c.client_replies = ks.replies_to_clients;
  c.crashes = ks.crashes;
  c.safecopy_bytes = ks.safecopy_bytes;
  c.grant_bypass_bytes = ks.grant_bypass_bytes;
  c.grants = ks.grants_created;
  c.queue_high_water = ks.queue_high_water;
  for (recovery::Recoverable* comp : inst.components()) {
    const seep::WindowStats& ws = comp->window().stats();
    c.windows += ws.opened;
    c.closed_by_seep += ws.closed_by_seep;
    c.closed_by_yield += ws.closed_by_yield;
    c.probes_inside += ws.probe_hits_inside;
    c.probes_outside += ws.probe_hits_outside;
    const ckpt::UndoLogStats& ls = comp->ckpt_context().log().stats();
    c.undo_records += ls.records;
    c.undo_bytes += ls.bytes_logged;
    c.dup_skips += ls.duplicate_skips;
    c.partial_rollbacks += ls.partial_rollbacks;
    c.page_records += ls.page_records;
    c.page_bytes += ls.page_bytes_logged;
    c.compacted_bytes += ls.compacted_bytes;
    c.delta_restart_bytes += ls.delta_restart_bytes;
    c.full_copy_bytes += ls.full_copy_bytes;
    c.max_log_bytes = std::max<std::uint64_t>(c.max_log_bytes, ls.max_log_bytes);
    if (const servers::FomStats* fs = comp->fom_stats()) {
      c.fom_parks += fs->parks;
      c.fom_retries += fs->retries;
      c.fom_sync_fallbacks += fs->sync_fallbacks;
      c.fom_in_flight_high_water = std::max(c.fom_in_flight_high_water, fs->in_flight_high_water);
      c.fom_wait_ticks += fs->wait_ticks_total;
    }
  }
  const fs::CacheStats& cs = inst.vfs().cache_stats();
  c.cache_hits = cs.hits;
  c.cache_misses = cs.misses;
  c.evictions = cs.evictions;
  c.disk_reads = inst.disk().stats().reads;
  c.disk_writes = inst.disk().stats().writes;
  const recovery::EngineStats& es = inst.engine().stats();
  c.recoveries = es.restarts;
  c.error_replies = es.error_replies;
  c.quarantines = es.quarantines;
  c.transient = es.transient_crashes;
  c.recurring = es.recurring_crashes;
  c.shutdowns = es.shutdowns;
  c.tick = inst.clock().now();
  return c;
}

/// end - start for cumulative counters; high-water marks keep the end value.
Counters delta(const Counters& a, const Counters& b) {
  Counters d = b;
#define OSB_SUB(f) d.f = b.f - a.f
  OSB_SUB(messages); OSB_SUB(dispatches); OSB_SUB(nested_calls); OSB_SUB(client_replies);
  OSB_SUB(crashes); OSB_SUB(safecopy_bytes); OSB_SUB(grant_bypass_bytes); OSB_SUB(grants);
  OSB_SUB(windows); OSB_SUB(closed_by_seep); OSB_SUB(closed_by_yield);
  OSB_SUB(probes_inside); OSB_SUB(probes_outside);
  OSB_SUB(undo_records); OSB_SUB(undo_bytes); OSB_SUB(dup_skips); OSB_SUB(partial_rollbacks);
  OSB_SUB(page_records); OSB_SUB(page_bytes); OSB_SUB(compacted_bytes);
  OSB_SUB(delta_restart_bytes); OSB_SUB(full_copy_bytes);
  OSB_SUB(fom_parks); OSB_SUB(fom_retries); OSB_SUB(fom_sync_fallbacks); OSB_SUB(fom_wait_ticks);
  OSB_SUB(cache_hits); OSB_SUB(cache_misses); OSB_SUB(evictions);
  OSB_SUB(disk_reads); OSB_SUB(disk_writes);
  OSB_SUB(recoveries); OSB_SUB(error_replies); OSB_SUB(quarantines);
  OSB_SUB(transient); OSB_SUB(recurring); OSB_SUB(shutdowns); OSB_SUB(tick);
#undef OSB_SUB
  return d;
}

void digest_counters(Digest& d, const Counters& c) {
  for (const std::uint64_t v :
       {c.messages, c.dispatches, c.nested_calls, c.client_replies, c.crashes, c.safecopy_bytes,
        c.grant_bypass_bytes, c.grants, c.queue_high_water, c.windows, c.closed_by_seep,
        c.closed_by_yield, c.probes_inside, c.probes_outside, c.undo_records, c.undo_bytes,
        c.dup_skips, c.partial_rollbacks, c.page_records, c.page_bytes, c.compacted_bytes,
        c.delta_restart_bytes, c.full_copy_bytes, c.max_log_bytes, c.fom_parks, c.fom_retries,
        c.fom_sync_fallbacks, c.fom_in_flight_high_water, c.fom_wait_ticks, c.cache_hits,
        c.cache_misses, c.evictions, c.disk_reads, c.disk_writes, c.recoveries, c.error_replies,
        c.quarantines, c.transient, c.recurring, c.shutdowns, c.tick}) {
    d.add(v);
  }
}

// ---------------------------------------------------------------------------
// Serving workloads

enum class Op : std::uint8_t { kRead, kWrite, kStat, kRetrieve, kPublish, kGetPid, kLseek };
constexpr std::size_t kMixOps = 6;  // kLseek is never drawn: it wraps the file cursor

struct ServeSpec {
  const char* name;
  std::array<int, kMixOps> mix_permille;  // read, write, stat, retrieve, publish, getpid
  std::size_t payload;                    // bytes per read/write
  std::size_t file_bytes;                 // per-client file
  double working_set_per_cache;           // working set / block cache (0: cache holds it)
  double mean_interval;                   // per-client mean inter-arrival, virtual ticks
  std::uint64_t warm_requests;            // untimed, part of set-up
  std::uint64_t timed_requests;           // requests due in the timed phase
  int keys_per_client;                    // DS keys each client owns
  bool fault;                             // periodic in-window fail-stop at DS's busiest probe
};

constexpr int kClients = 32;

// serve-hit: the `mixed` profile, 32 KiB grant reads/writes, cache holds all.
constexpr ServeSpec kServeHit{
    "serve-hit", {450, 200, 150, 80, 40, 80}, 32 * 1024, 256 * 1024, 0.0, 6.0, 5'000, 60'000,
    1, false};
// serve-miss: the `bulk` profile, multi-block ops over 8x the block cache.
constexpr ServeSpec kServeMiss{
    "serve-miss", {600, 300, 50, 0, 0, 50}, 8 * 1024, 256 * 1024, 8.0, 400.0, 2'000, 16'000,
    1, false};
// serve-fault: the `meta` profile against MiB-scale recoverable state.
constexpr ServeSpec kServeFault{
    "serve-fault", {0, 0, 400, 250, 100, 250}, 0, 4 * 1024, 0.0, 256.0, 3'000, 44'000, 3,
    true};

/// Crash spacing for serve-fault, in virtual ticks: above the ladder's
/// default crash_window_ticks (2000), so fewer than recurring_threshold (3)
/// crashes land in any window and every crash is a transient recovery.
constexpr double kFaultSpacingTicks = 2500.0;

/// serve-miss latency limit on lat_p999_ticks for capacity_rpkt, fixed once
/// (recorded in baseline.json): 25x the unloaded p50 of an 8-block miss
/// (8 serial 40-tick disk reads).
constexpr double kMissP999LimitTicks = 8000.0;
/// serve-miss sweep of offered rates, per-client mean inter-arrival ticks:
/// 40, 80 (nominal), 128 and 200 requests per kilotick for 32 clients.
constexpr std::array<double, 4> kMissSweepIntervals = {800.0, 400.0, 250.0, 160.0};

struct PhaseAccum {
  std::uint64_t due = 0;        // arrivals generated (requests due)
  std::uint64_t ok = 0;         // replies that passed every check
  std::uint64_t errors = 0;     // error replies (E_CRASH on serve-fault)
  std::uint64_t failures = 0;   // replies that broke a check
  std::uint64_t lost = 0;       // requests unanswered at drain
  std::uint64_t crash_verifies = 0;  // post-E_CRASH consistency reads
  std::vector<std::uint32_t> lat_ticks;
  std::uint64_t target = 0;     // arrivals to generate
  bool counting = false;        // timed phase: record latency samples
  // Banked-backlog samples (taken at each arrival) by half of the phase.
  std::uint64_t banked = 0, backlog_max = 0;
  std::uint64_t unanswered = 0;  // arrivals not yet answered (banked + outstanding)
  double backlog_sum[2] = {0, 0};
  std::uint64_t backlog_n[2] = {0, 0};
  // Blackout: crash-handler entry -> DS's first successful client reply.
  bool blackout_open = false;
  double blackout_start = 0.0;
  std::vector<double> blackout_us;
  std::vector<double> on_crash_us;
};

class Client final : public kernel::IClient {
 public:
  Client(os::OsInstance& inst, const ServeSpec& spec, int id, Rng rng,
         const std::vector<std::byte>& pattern, PhaseAccum& acc)
      : inst_(inst), spec_(spec), id_(id), rng_(rng), pattern_(pattern), acc_(acc) {
    int cum = 0;
    for (std::size_t i = 0; i < kMixOps; ++i) cum_[i] = (cum += spec.mix_permille[i]);
    path_ = "/tmp/cli" + std::to_string(id);
    for (int k = 0; k < spec.keys_per_client; ++k) {
      keys_.push_back("bench.c" + std::to_string(id) + ".k" + std::to_string(k));
    }
    values_.assign(keys_.size(), 0);
    blob_gen_.assign(keys_.size(), 0);
    io_.resize(std::max<std::size_t>(spec.payload, 1));
    ep_ = inst_.kern().register_client(this);
    inst_.pm().register_boot_proc(id, ep_, "bench");
    inst_.vm().register_boot_proc(id);
    inst_.vfs().register_boot_proc(id, ep_);
    inst_.sys_task().register_boot_proc(id);
  }

  [[nodiscard]] std::size_t banked() const { return banked_.size(); }
  void drop_banked() {
    acc_.banked -= banked_.size();
    acc_.unanswered -= banked_.size();
    banked_.clear();
  }
  [[nodiscard]] bool outstanding() const { return outstanding_; }

  /// Set-up: create the file with seeded bytes and publish the DS keys.
  void populate(bool blobs) {
    blobs_ = blobs;
    kernel::Message r = sync(kernel::kVfsEp, servers::encode_text(servers::VFS_OPEN, path_,
                                                                  servers::O_CREAT | servers::O_RDWR));
    check(r.sarg(0) >= 0, "open");
    fd_ = static_cast<std::uint64_t>(r.sarg(0));
    model_.resize(spec_.file_bytes);
    for (std::size_t off = 0; off < model_.size(); off += 4096) {
      const std::size_t n = std::min<std::size_t>(4096, model_.size() - off);
      std::memcpy(model_.data() + off, pattern_.data() + rng_.below(pattern_.size() - 4096), n);
    }
    const kernel::GrantId g = inst_.kern().make_grant(ep_, kernel::kVfsEp, model_.data(),
                                                      model_.size(), kernel::Access::kRead);
    r = sync(kernel::kVfsEp, servers::encode(servers::VFS_WRITE, fd_, g, model_.size()));
    inst_.kern().revoke_grant(g);
    check(r.sarg(0) == static_cast<std::int64_t>(model_.size()), "initial write");
    r = sync(kernel::kVfsEp, servers::encode(servers::VFS_LSEEK, fd_, 0, 0));
    check(r.sarg(0) == 0, "initial lseek");
    pos_ = 0;
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      values_[k] = 1000 + rng_.below(1000);
      r = sync(kernel::kDsEp, servers::encode_text(servers::DS_PUBLISH, keys_[k], values_[k]));
      check(r.sarg(0) == 0, "initial publish");
      blob_gen_[k] = blobs_ ? 1 : 0;
    }
  }

  void on_arrival() {
    const Tick now = inst_.clock().now();
    ++acc_.unanswered;
    if (outstanding_) {
      banked_.push_back(now);
      ++acc_.banked;
      acc_.backlog_max = std::max(acc_.backlog_max, acc_.banked);
    } else {
      issue(now);
    }
  }

  void on_reply(const kernel::Message& r) override {
    if (sync_waiting_) {
      sync_reply_ = r;
      sync_waiting_ = false;
      return;
    }
    SpanScope span(SpanKind::kClient, id_, seq_);
    if (grant_ != 0) {
      inst_.kern().revoke_grant(grant_);
      grant_ = 0;
    }
    outstanding_ = false;
    --acc_.unanswered;
    const Tick now = inst_.clock().now();
    if (acc_.counting) acc_.lat_ticks.push_back(static_cast<std::uint32_t>(now - due_));
    judge(r);
    if (!banked_.empty()) {
      const Tick due = banked_.front();
      banked_.pop_front();
      --acc_.banked;
      issue(due);
    }
  }

  void on_notify(const kernel::Message&) override {}

 private:
  kernel::Message sync(kernel::Endpoint dst, const kernel::Message& m) {
    sync_waiting_ = true;
    inst_.kern().send(ep_, dst, m);
    while (sync_waiting_) {
      if (!inst_.kern().dispatch_pending() && !inst_.clock().advance_to_next()) break;
    }
    check(!sync_waiting_, "set-up request wedged");
    return sync_reply_;
  }

  void check(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "osbench: client %d set-up failed: %s\n", id_, what);
      std::exit(3);
    }
  }

  void fail(const char* what, std::int64_t status) {
    ++acc_.failures;
    if (acc_.failures <= 5) {
      std::fprintf(stderr, "osbench: client %d request %llu (%s) failed check: status %lld\n",
                   id_, static_cast<unsigned long long>(seq_), what,
                   static_cast<long long>(status));
    }
  }

  Op pick() {
    if (verify_key_ >= 0) return Op::kRetrieve;  // post-E_CRASH consistency read
    const int roll = static_cast<int>(rng_.below(1000));
    for (std::size_t i = 0; i < kMixOps; ++i) {
      if (roll < cum_[i]) return static_cast<Op>(i);
    }
    return Op::kGetPid;
  }

  void issue(Tick due) {
    outstanding_ = true;
    due_ = due;
    ++seq_;
    kernel::Kernel& k = inst_.kern();
    op_ = pick();
    switch (op_) {
      case Op::kRead:
      case Op::kWrite: {
        if (pos_ + spec_.payload > model_.size()) {
          op_ = Op::kLseek;
          k.send(ep_, kernel::kVfsEp, servers::encode(servers::VFS_LSEEK, fd_, 0, 0));
          return;
        }
        if (op_ == Op::kRead) {
          grant_ = k.make_grant(ep_, kernel::kVfsEp, io_.data(), spec_.payload,
                                kernel::Access::kWrite);
          k.send(ep_, kernel::kVfsEp,
                 servers::encode(servers::VFS_READ, fd_, grant_, spec_.payload));
        } else {
          src_off_ = rng_.below(pattern_.size() - spec_.payload);
          grant_ = k.make_grant(ep_, kernel::kVfsEp,
                                const_cast<std::byte*>(pattern_.data() + src_off_),
                                spec_.payload, kernel::Access::kRead);
          k.send(ep_, kernel::kVfsEp,
                 servers::encode(servers::VFS_WRITE, fd_, grant_, spec_.payload));
        }
        return;
      }
      case Op::kStat:
        k.send(ep_, kernel::kVfsEp, servers::encode_text(servers::VFS_STAT, path_));
        return;
      case Op::kRetrieve:
        key_ = verify_key_ >= 0 ? static_cast<std::size_t>(verify_key_) : rng_.below(keys_.size());
        k.send(ep_, kernel::kDsEp, servers::encode_text(servers::DS_RETRIEVE, keys_[key_]));
        return;
      case Op::kPublish:
        key_ = rng_.below(keys_.size());
        new_value_ = values_[key_] + 1 + rng_.below(1000);
        k.send(ep_, kernel::kDsEp,
               servers::encode_text(servers::DS_PUBLISH, keys_[key_], new_value_));
        return;
      case Op::kGetPid:
        k.send(ep_, kernel::kPmEp, servers::encode(servers::PM_GETPID));
        return;
      case Op::kLseek:
        OSIRIS_PANIC("osbench: lseek drawn from the op mix");
    }
  }

  /// Check the reply against the client's model and update it.
  void judge(const kernel::Message& r) {
    const std::int64_t st = r.sarg(0);
    const bool crash_ok = spec_.fault && st == kernel::E_CRASH;
    if (st < 0) {
      if (!crash_ok) {
        fail("error reply", st);
        return;
      }
      ++acc_.errors;
      // An error-virtualized request must leave no trace: the model stays
      // as it was, and a publish is verified by the next request.
      if (op_ == Op::kPublish) verify_key_ = static_cast<int>(key_);
      if (op_ == Op::kRead || op_ == Op::kWrite) {
        fail("E_CRASH on a file op (VFS is never faulted)", st);
      }
      return;
    }
    bool ok = true;
    switch (op_) {
      case Op::kRead:
        ok = st == static_cast<std::int64_t>(spec_.payload) &&
             std::memcmp(io_.data(), model_.data() + pos_, spec_.payload) == 0;
        if (ok) pos_ += spec_.payload;
        break;
      case Op::kWrite:
        ok = st == static_cast<std::int64_t>(spec_.payload);
        if (ok) {
          std::memcpy(model_.data() + pos_, pattern_.data() + src_off_, spec_.payload);
          pos_ += spec_.payload;
        }
        break;
      case Op::kLseek:
        ok = st == 0;
        pos_ = 0;
        break;
      case Op::kStat:
        ok = r.arg[0] == model_.size();
        break;
      case Op::kRetrieve:
        ok = r.arg[1] == values_[key_] && (!blobs_ || r.arg[2] == blob_gen_[key_]);
        if (verify_key_ >= 0) {
          ++acc_.crash_verifies;
          verify_key_ = -1;
        }
        break;
      case Op::kPublish:
        values_[key_] = new_value_;
        if (blobs_) ++blob_gen_[key_];
        break;
      case Op::kGetPid:
        ok = st == id_;
        break;
    }
    if (!ok) {
      fail("model mismatch", st);
      return;
    }
    ++acc_.ok;
    if (acc_.blackout_open && (op_ == Op::kRetrieve || op_ == Op::kPublish)) {
      acc_.blackout_us.push_back((cpu_now() - acc_.blackout_start) * 1e6);
      acc_.blackout_open = false;
    }
  }

  os::OsInstance& inst_;
  const ServeSpec& spec_;
  int id_;
  Rng rng_;
  const std::vector<std::byte>& pattern_;
  PhaseAccum& acc_;
  std::array<int, kMixOps> cum_{};
  kernel::Endpoint ep_{};
  std::string path_;
  std::vector<std::string> keys_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> blob_gen_;
  bool blobs_ = false;
  std::vector<std::byte> model_;  // the file's bytes as this client wrote them
  std::vector<std::byte> io_;
  std::uint64_t fd_ = 0;
  std::size_t pos_ = 0;
  std::size_t src_off_ = 0;
  std::size_t key_ = 0;
  int verify_key_ = -1;
  std::uint64_t new_value_ = 0;
  kernel::GrantId grant_ = 0;
  bool outstanding_ = false;
  Op op_ = Op::kGetPid;
  Tick due_ = 0;
  std::uint64_t seq_ = 0;
  std::deque<Tick> banked_;
  bool sync_waiting_ = false;
  kernel::Message sync_reply_{};
};

struct ServeRep {
  double setup_cpu = 0, boot_cpu = 0, timed_cpu = 0, timed_wall = 0;
  double host_scale = 1.0;  // kReferenceCpuS / reference time after this repetition
  Counters d;
  PhaseAccum acc;
  std::uint64_t digest = 0;
  std::uint64_t fired = 0;
  std::uint64_t fault_interval = 0;
};

os::OsConfig serve_config(const ServeSpec& spec) {
  os::OsConfig cfg;
  cfg.policy = seep::Policy::kEnhanced;
  cfg.fastpath.zero_copy = true;
  cfg.vfs_fom = true;
  const std::size_t file_blocks = kClients * spec.file_bytes / fs::kBlockSize;
  cfg.disk_blocks = 2 * file_blocks + 2048;
  cfg.cache_blocks = spec.working_set_per_cache > 0
                         ? static_cast<std::size_t>(static_cast<double>(file_blocks) /
                                                    spec.working_set_per_cache)
                         : file_blocks + 256;
  if (spec.fault) {
    cfg.max_recoveries = 1u << 30;  // as Figure 3: sustain the fault influx
    cfg.ckpt_pages.enabled = true;
    cfg.ds_blob_slots = 512;         // 2 MiB DS blob table
    cfg.vfs_journal_slots = 8192;    // 1 MiB VFS op journal
  }
  return cfg;
}

/// Drive the machine until every arrival was generated and answered. A drain
/// that outlives its virtual-time cap counts the rest as lost.
void drive(os::OsInstance& inst, std::vector<std::unique_ptr<Client>>& clients, PhaseAccum& acc,
           Tick drain_cap_ticks) {
  kernel::Kernel& kern = inst.kern();
  VirtualClock& clock = inst.clock();
  Tick drain_deadline = 0;
  while (kern.state() == kernel::SystemState::kRunning) {
    if (acc.due >= acc.target) {
      if (acc.unanswered == 0) break;
      if (drain_deadline == 0) drain_deadline = clock.now() + drain_cap_ticks;
      if (clock.now() >= drain_deadline) break;
    }
    if (!kern.queue_empty()) {
      SpanScope s(SpanKind::kDispatch);
      kern.dispatch_pending();
    } else {
      SpanScope s(SpanKind::kClock);
      if (!clock.advance_to_next()) break;
    }
  }
  for (auto& c : clients) {
    if (c->outstanding()) ++acc.lost;
    acc.lost += c->banked();
    c->drop_banked();
  }
}

/// One repetition: set-up (boot, population, warm-up), then the timed phase.
/// A non-null `ledger` records spans for boot and the timed phase.
ServeRep serve_rep(const ServeSpec& spec, double mean_interval, std::uint64_t seed,
                   const std::vector<std::byte>& pattern, Ledger* ledger) {
  ServeRep rep;
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  const double setup0 = cpu_now();
  std::unique_ptr<os::OsInstance> inst;
  g_ledger = ledger;
  {
    SpanScope s(SpanKind::kBoot);
    inst = std::make_unique<os::OsInstance>(serve_config(spec));
    inst->boot();
  }
  g_ledger = nullptr;
  rep.boot_cpu = cpu_now() - setup0;

  Rng root(seed);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(*inst, spec, i + 1, root.fork(), pattern, rep.acc));
    clients.back()->populate(spec.fault);
  }

  PhaseAccum& acc = rep.acc;
  Rng arrivals(root.next());
  // Each phase restarts the arrival chains; callbacks left over from an
  // earlier phase see a stale epoch and stop.
  std::uint64_t epoch = 0;
  std::function<void(Client*, std::uint64_t)> chain = [&](Client* c, std::uint64_t ep) {
    if (ep != epoch || acc.due >= acc.target) return;
    {
      SpanScope s(SpanKind::kClient);
      if (acc.counting) {
        const int half = acc.due * 2 < acc.target ? 0 : 1;
        acc.backlog_sum[half] += static_cast<double>(acc.banked);
        ++acc.backlog_n[half];
      }
      ++acc.due;
      c->on_arrival();
    }
    const double u = arrivals.uniform();
    const Tick dt =
        std::max<Tick>(1, static_cast<Tick>(-std::log(1.0 - u) * mean_interval + 0.5));
    inst->clock().call_after(dt, [&chain, c, ep] { chain(c, ep); });
  };
  auto start_arrivals = [&](std::uint64_t n) {
    acc.due = 0;
    acc.target = n;
    ++epoch;
    for (auto& c : clients) {
      const Tick dt = 1 + arrivals.below(static_cast<std::uint64_t>(mean_interval) + 1);
      inst->clock().call_after(dt, [&chain, c = c.get(), ep = epoch] { chain(c, ep); });
    }
  };
  const Tick drain_cap = static_cast<Tick>(200.0 * mean_interval) + 100'000;

  // Warm-up: same clients and profile, untimed, so caches and logs reach
  // their steady state before the timed phase.
  start_arrivals(spec.warm_requests);
  drive(*inst, clients, acc, drain_cap);
  if (acc.failures != 0 || acc.lost != 0) {
    std::fprintf(stderr, "osbench: %s warm-up failed\n", spec.name);
    std::exit(3);
  }

  fi::Site* fault_site = nullptr;
  if (spec.fault) {
    // DS's busiest probe under this very load, and a hit interval that
    // spaces crashes kFaultSpacingTicks apart at the warm-up's hit rate.
    std::uint64_t best_hits = 0;
    for (fi::Site* s : fi::Registry::sites()) {
      if (std::strcmp(s->tag, "ds") == 0 && reg.hits(s) > best_hits) {
        best_hits = reg.hits(s);
        fault_site = s;
      }
    }
    if (fault_site == nullptr) {
      std::fprintf(stderr, "osbench: no DS probe fired during warm-up\n");
      std::exit(3);
    }
    const double ticks = static_cast<double>(inst->clock().now());
    rep.fault_interval = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(best_hits) / ticks * kFaultSpacingTicks));
    inst->kern().set_crash_handler([&](const kernel::CrashContext& ctx) {
      const double t0 = cpu_now();
      if (!acc.blackout_open) {
        acc.blackout_open = true;
        acc.blackout_start = t0;
      }
      kernel::CrashDecision d;
      {
        SpanScope s(SpanKind::kCrash);
        d = inst->engine().on_crash(ctx);
      }
      acc.on_crash_us.push_back((cpu_now() - t0) * 1e6);
      return d;
    });
  }
  rep.setup_cpu = cpu_now() - setup0;

  acc.counting = true;
  acc.lat_ticks.reserve(spec.timed_requests);
  const Counters before = snapshot(*inst);
  const std::uint64_t ok0 = acc.ok, err0 = acc.errors;
  const std::uint64_t fired0 = reg.injections_fired();  // cumulative per thread
  if (fault_site != nullptr) reg.arm_periodic_window_crash(fault_site, rep.fault_interval);
  const double w0 = wall_now();
  const double c0 = cpu_now();
  g_ledger = ledger;
  {
    SpanScope s(SpanKind::kPhase);
    start_arrivals(spec.timed_requests);
    drive(*inst, clients, acc, drain_cap);
  }
  g_ledger = nullptr;
  rep.timed_cpu = cpu_now() - c0;
  rep.timed_wall = wall_now() - w0;
  rep.fired = reg.injections_fired() - fired0;
  reg.disarm();
  rep.d = delta(before, snapshot(*inst));
  acc.ok -= ok0;
  acc.errors -= err0;

  Digest dg;
  digest_counters(dg, rep.d);
  for (const std::uint64_t v : {acc.due, acc.ok, acc.errors, acc.failures, acc.lost,
                                acc.crash_verifies, acc.backlog_max, rep.fired}) {
    dg.add(v);
  }
  for (const std::uint32_t t : acc.lat_ticks) dg.add(t);
  rep.digest = dg.h;
  return rep;
}

// ---------------------------------------------------------------------------
// Output

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its list (BENCHMARK.json names the
// same ones). A per-layer metric of a layer the workload bypasses reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"work_per_cpu_s", "1/s"}, {"pass_share", "fraction"},
    {"peak_rss_mib", "MiB"}};
constexpr MetricDef kPerLayer[] = {
    {"kernel.dispatch_self_ns_per_msg", "ns"},
    {"kernel.msgs_per_req", "count"},
    {"kernel.nested_calls_per_req", "count"},
    {"kernel.copy_bytes_per_req", "B"},
    {"kernel.queue_high_water", "count"},
    {"seep.windows_per_req", "count"},
    {"seep.close_by_seep_share", "fraction"},
    {"seep.coverage", "fraction"},
    {"ckpt.undo_records_per_req", "count"},
    {"ckpt.undo_bytes_per_req", "B"},
    {"ckpt.dup_skip_share", "fraction"},
    {"ckpt.partial_rollbacks_per_req", "count"},
    {"ckpt.page_records_per_req", "count"},
    {"ckpt.page_bytes_per_req", "B"},
    {"ckpt.compacted_bytes", "B"},
    {"ckpt.delta_restart_bytes_per_recovery", "B"},
    {"ckpt.full_copy_bytes_per_recovery", "B"},
    {"ckpt.max_log_bytes", "B"},
    {"servers.fom_parks_per_req", "count"},
    {"servers.fom_retries_per_req", "count"},
    {"servers.fom_sync_fallbacks", "count"},
    {"servers.fom_in_flight_high_water", "count"},
    {"servers.fom_wait_ticks_per_req", "ticks"},
    {"fs.cache_hit_share", "fraction"},
    {"fs.disk_reads_per_req", "count"},
    {"fs.disk_writes_per_req", "count"},
    {"fs.evictions_per_req", "count"},
    {"support.clock_advance_self_ns_per_req", "ns"},
    {"recovery.on_crash_us_p50", "us"},
    {"recovery.on_crash_us_max", "us"},
    {"recovery.cpu_share", "fraction"},
    {"recovery.recoveries", "count"},
    {"recovery.error_replies", "count"},
    {"recovery.quarantines", "count"},
    {"os.boot_ms", "ms"},
    {"workload.inj_ms_p50.pass", "ms"},
    {"workload.inj_ms_p50.fail", "ms"},
    {"workload.inj_ms_p50.shutdown", "ms"},
    {"workload.inj_ms_p50.crash", "ms"},
    {"workload.wedged_cpu_share", "fraction"},
    {"fi.injections.pass", "count"},
    {"fi.injections.fail", "count"},
    {"fi.injections.shutdown", "count"},
    {"fi.injections.crash", "count"},
    {"fi.fired", "count"},
    {"bench.generator_cpu_share", "fraction"},
    {"bench.backlog_max", "count"},
    {"trace.overhead_share", "fraction"},
    {"trace.coverage", "fraction"},
    // Workload-level results that exist on some workloads only: traced with
    // the ledger because the gated end-to-end list must hold on all four.
    {"req_per_cpu_s", "1/s"},
    {"inj_per_cpu_s", "1/s"},
    {"lat_p50_ticks", "ticks"},
    {"lat_p999_ticks", "ticks"},
    {"capacity_rpkt", "req/kilotick"},
    {"err_share", "fraction"},
    {"blackout_us_p50", "us"},
    {"blackout_us_p90", "us"},
    {"crash_share", "fraction"},
};

using Values = std::map<std::string, double>;

std::string fmt_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The result line: the last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed, bool traced,
                  const Values& values) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    s += std::string(first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
         fmt_number(it == values.end() ? 0.0 : it->second) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (traced) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  s += "}}";
  std::fflush(stdout);
  std::printf("%s\n", s.c_str());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

/// Serve-miss offered-rate sweep: latency and backlog per rate, and the
/// highest rate that meets the p999 limit without a growing backlog.
struct SweepPoint {
  double rate_rpkt = 0, lat_p50 = 0, lat_p999 = 0, backlog_h1 = 0, backlog_h2 = 0;
  bool meets = false;
};

bool backlog_steady(const PhaseAccum& a, double* h1, double* h2) {
  *h1 = ratio(a.backlog_sum[0], static_cast<double>(a.backlog_n[0]));
  *h2 = ratio(a.backlog_sum[1], static_cast<double>(a.backlog_n[1]));
  return *h2 <= 1.25 * *h1 + 1.0;
}

/// The traced run's span self times must account for the timed phase's
/// CPU time within this share; outside it the run reports itself incorrect.
/// The ledger's own bookkeeping falls between spans: on serve-fault, whose
/// requests cost ~2 us, that leaves coverage near 0.95.
constexpr double kCoverageTolerance = 0.15;

bool coverage_ok(double coverage) {
  if (std::fabs(coverage - 1.0) <= kCoverageTolerance) return true;
  std::fprintf(stderr, "osbench: span self times cover %.3f of the timed CPU time\n", coverage);
  return false;
}

double offered_rpkt(double mean_interval) { return 1000.0 * kClients / mean_interval; }

int run_serve(const ServeSpec& spec, const Options& opt) {
  // Seeded byte pattern: the source of every written byte.
  std::vector<std::byte> pattern(1 << 20);
  {
    Rng prng(opt.seed ^ 0x5eedfeedULL);
    for (std::size_t i = 0; i < pattern.size(); i += 8) {
      const std::uint64_t v = prng.next();
      std::memcpy(pattern.data() + i, &v, 8);
    }
  }
  const double run_cpu0 = cpu_now();
  const double run_wall0 = wall_now();
  const int min_reps = opt.trace ? 4 : 3;
  std::vector<ServeRep> reps;
  std::vector<double> traced_cpu_per_req, plain_cpu_per_req;
  std::vector<SelfTimes> traced_self;
  std::vector<double> traced_phase_cpu;
  std::vector<double> boot_ms;
  Ledger first_ledger;
  double rss_mib = 0.0;
  bool correct = true;
  while (static_cast<int>(reps.size()) < min_reps ||
         (cpu_now() - run_cpu0 < opt.seconds && reps.size() < 200)) {
    // Traced runs alternate plain and traced repetitions: the plain ones
    // give trace.overhead_share.
    const bool traced = opt.trace && reps.size() % 2 == 1;
    Ledger ledger;
    if (traced) ledger.spans.reserve(8 * spec.timed_requests);
    ServeRep rep =
        serve_rep(spec, spec.mean_interval, opt.seed, pattern, traced ? &ledger : nullptr);
    // Read before the reference kernel first runs: its buffer is not the
    // program's, and later repetitions repeat the first one's footprint.
    if (reps.empty()) rss_mib = peak_rss_mib();
    if (!opt.trace) rep.host_scale = kReferenceCpuS / reference_cpu();
    const double per_req = rep.timed_cpu / static_cast<double>(std::max<std::uint64_t>(1, rep.acc.due));
    boot_ms.push_back(rep.boot_cpu * 1e3);
    if (traced) {
      traced_cpu_per_req.push_back(per_req);
      traced_self.push_back(self_times(ledger));
      traced_phase_cpu.push_back(rep.timed_cpu);
      if (first_ledger.spans.empty()) first_ledger = std::move(ledger);
    } else {
      plain_cpu_per_req.push_back(per_req);
    }
    if (!reps.empty() && rep.digest != reps.front().digest) {
      std::fprintf(stderr, "osbench: %s repetition %zu digest %016llx != %016llx\n", spec.name,
                   reps.size(), static_cast<unsigned long long>(rep.digest),
                   static_cast<unsigned long long>(reps.front().digest));
      correct = false;
    }
    if (!reps.empty()) {
      // Samples are reported from the first repetition (the digest says the
      // others match it); dropping theirs keeps peak_rss_mib independent of
      // how many repetitions the host's speed allowed.
      std::vector<std::uint32_t>().swap(rep.acc.lat_ticks);
      std::vector<double>().swap(rep.acc.blackout_us);
      std::vector<double>().swap(rep.acc.on_crash_us);
    }
    reps.push_back(std::move(rep));
  }

  const ServeRep& r0 = reps.front();
  const PhaseAccum& a = r0.acc;
  const Counters& d = r0.d;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_s, work, raw_work, wall_work, host_speed;
  for (const ServeRep& r : reps) {
    const auto units = static_cast<double>(r.acc.ok + r.acc.errors);
    attempted += r.acc.due;
    failed += r.acc.failures + r.acc.lost;
    setup_s.push_back(r.setup_cpu * r.host_scale);
    work.push_back(units / (r.timed_cpu * r.host_scale));
    raw_work.push_back(units / r.timed_cpu);
    wall_work.push_back(units / r.timed_wall);
    host_speed.push_back(r.host_scale);
  }
  const double completed = static_cast<double>(a.ok + a.errors);
  const double due = static_cast<double>(a.due);
  const double req = std::max(1.0, completed);

  // Correctness: every reply checked, nothing lost, digest stable, and on
  // serve-fault every crash a transient windowed recovery whose E_CRASH
  // publishes were verified unchanged.
  if (failed != 0) correct = false;
  if (!spec.fault && a.errors != 0) correct = false;
  if (spec.fault) {
    if (d.recurring != 0 || d.quarantines != 0 || d.shutdowns != 0 || d.recoveries < 100) {
      std::fprintf(stderr,
                   "osbench: serve-fault recovery shape off: recoveries %llu recurring %llu "
                   "quarantines %llu shutdowns %llu\n",
                   static_cast<unsigned long long>(d.recoveries),
                   static_cast<unsigned long long>(d.recurring),
                   static_cast<unsigned long long>(d.quarantines),
                   static_cast<unsigned long long>(d.shutdowns));
      correct = false;
    }
  }
  if (a.lat_ticks.size() < 10'000) correct = false;

  const double lat_p50 = percentile(a.lat_ticks, 0.50);
  const double lat_p999 = percentile(a.lat_ticks, 0.999);
  const double err_share = ratio(static_cast<double>(a.errors + a.lost), due);
  double h1 = 0, h2 = 0;
  const bool steady = backlog_steady(a, &h1, &h2);
  if (std::strcmp(spec.name, "serve-miss") == 0 && !steady) {
    std::fprintf(stderr, "osbench: serve-miss backlog grows at the nominal rate\n");
    correct = false;
  }

  std::printf("workload %s seed %llu: %zu repetitions, %llu requests due each, digest %016llx\n",
              spec.name, static_cast<unsigned long long>(opt.seed), reps.size(),
              static_cast<unsigned long long>(a.due), static_cast<unsigned long long>(r0.digest));
  std::printf("  completed %llu  errors %llu  lost %llu  check failures %llu  "
              "crash-verifies %llu  virtual ticks %llu\n",
              static_cast<unsigned long long>(a.ok), static_cast<unsigned long long>(a.errors),
              static_cast<unsigned long long>(a.lost),
              static_cast<unsigned long long>(a.failures),
              static_cast<unsigned long long>(a.crash_verifies),
              static_cast<unsigned long long>(d.tick));
  std::printf("  req_per_cpu_s %.1f (wall %.1f)  lat_p50_ticks %.0f  lat_p999_ticks %.0f  "
              "err_share %.5f  backlog %.2f -> %.2f\n",
              median(raw_work), median(wall_work), lat_p50, lat_p999, err_share, h1, h2);
  if (!opt.trace) {
    std::printf("  host speed %.3f of the reference: %.1f req per reference CPU s\n",
                median(host_speed), median(work));
  }
  if (spec.fault) {
    std::printf("  recoveries %llu  fault interval %llu hits  blackout_us p50 %.1f p90 %.1f\n",
                static_cast<unsigned long long>(d.recoveries),
                static_cast<unsigned long long>(r0.fault_interval),
                percentile(a.blackout_us, 0.5), percentile(a.blackout_us, 0.9));
  }
  std::printf("  host: cpu %.2f s, wall %.2f s\n", cpu_now() - run_cpu0, wall_now() - run_wall0);

  Values v;
  v["setup_s"] = median(setup_s);
  v["work_per_cpu_s"] = median(work);
  v["pass_share"] = ratio(static_cast<double>(a.ok), due);
  v["peak_rss_mib"] = rss_mib;
  if (!opt.trace) {
    print_result(correct, attempted, failed, false, v);
    return 0;
  }

  // --- traced run: the per-layer ledger --------------------------------
  double capacity = 0.0;
  if (std::strcmp(spec.name, "serve-miss") == 0) {
    for (const double interval : kMissSweepIntervals) {
      ServeRep sr = serve_rep(spec, interval, opt.seed, pattern, nullptr);
      SweepPoint p;
      p.rate_rpkt = offered_rpkt(interval);
      p.lat_p50 = percentile(sr.acc.lat_ticks, 0.5);
      p.lat_p999 = percentile(sr.acc.lat_ticks, 0.999);
      const bool st = backlog_steady(sr.acc, &p.backlog_h1, &p.backlog_h2);
      p.meets = st && sr.acc.lost == 0 && p.lat_p999 <= kMissP999LimitTicks;
      if (p.meets) capacity = std::max(capacity, p.rate_rpkt);
      std::printf("  sweep rate %.1f req/kt: lat_p50 %.0f p999 %.0f ticks, backlog %.2f -> %.2f,"
                  " lost %llu%s\n",
                  p.rate_rpkt, p.lat_p50, p.lat_p999, p.backlog_h1, p.backlog_h2,
                  static_cast<unsigned long long>(sr.acc.lost), p.meets ? "" : "  (over)");
    }
  }

  std::vector<double> disp_ns, clock_ns, gen_share, cov, crash_share_cpu;
  for (std::size_t i = 0; i < traced_self.size(); ++i) {
    const SelfTimes& t = traced_self[i];
    const double phase = traced_phase_cpu[i];
    disp_ns.push_back(t.self_s[static_cast<int>(SpanKind::kDispatch)] * 1e9 /
                      std::max<double>(1.0, static_cast<double>(d.messages)));
    clock_ns.push_back(t.self_s[static_cast<int>(SpanKind::kClock)] * 1e9 / req);
    gen_share.push_back(t.self_s[static_cast<int>(SpanKind::kClient)] / phase);
    crash_share_cpu.push_back(t.self_s[static_cast<int>(SpanKind::kCrash)] / phase);
    double covered = 0.0;
    for (const SpanKind k : {SpanKind::kDispatch, SpanKind::kClock, SpanKind::kCrash,
                             SpanKind::kClient}) {
      covered += t.self_s[static_cast<int>(k)];
    }
    cov.push_back(covered / phase);
  }
  const double coverage = median(cov);
  if (!coverage_ok(coverage)) correct = false;
  if (!opt.spans_out.empty()) write_spans(first_ledger, opt.spans_out);

  const auto per_req = [&](std::uint64_t n) { return static_cast<double>(n) / req; };
  const double probes = static_cast<double>(d.probes_inside + d.probes_outside);
  const double rec = static_cast<double>(d.recoveries);
  v = {
      {"kernel.dispatch_self_ns_per_msg", median(disp_ns)},
      {"kernel.msgs_per_req", per_req(d.messages)},
      {"kernel.nested_calls_per_req", per_req(d.nested_calls)},
      {"kernel.copy_bytes_per_req", per_req(d.safecopy_bytes + d.grant_bypass_bytes)},
      {"kernel.queue_high_water", static_cast<double>(d.queue_high_water)},
      {"seep.windows_per_req", per_req(d.windows)},
      {"seep.close_by_seep_share",
       ratio(static_cast<double>(d.closed_by_seep), static_cast<double>(d.windows))},
      {"seep.coverage", ratio(static_cast<double>(d.probes_inside), probes)},
      {"ckpt.undo_records_per_req", per_req(d.undo_records)},
      {"ckpt.undo_bytes_per_req", per_req(d.undo_bytes)},
      {"ckpt.dup_skip_share", ratio(static_cast<double>(d.dup_skips),
                                    static_cast<double>(d.dup_skips + d.undo_records))},
      {"ckpt.partial_rollbacks_per_req", per_req(d.partial_rollbacks)},
      {"ckpt.page_records_per_req", per_req(d.page_records)},
      {"ckpt.page_bytes_per_req", per_req(d.page_bytes)},
      {"ckpt.compacted_bytes", static_cast<double>(d.compacted_bytes)},
      {"ckpt.delta_restart_bytes_per_recovery",
       ratio(static_cast<double>(d.delta_restart_bytes), rec)},
      {"ckpt.full_copy_bytes_per_recovery", ratio(static_cast<double>(d.full_copy_bytes), rec)},
      {"ckpt.max_log_bytes", static_cast<double>(d.max_log_bytes)},
      {"servers.fom_parks_per_req", per_req(d.fom_parks)},
      {"servers.fom_retries_per_req", per_req(d.fom_retries)},
      {"servers.fom_sync_fallbacks", static_cast<double>(d.fom_sync_fallbacks)},
      {"servers.fom_in_flight_high_water", static_cast<double>(d.fom_in_flight_high_water)},
      {"servers.fom_wait_ticks_per_req", per_req(d.fom_wait_ticks)},
      {"fs.cache_hit_share", ratio(static_cast<double>(d.cache_hits),
                                   static_cast<double>(d.cache_hits + d.cache_misses))},
      {"fs.disk_reads_per_req", per_req(d.disk_reads)},
      {"fs.disk_writes_per_req", per_req(d.disk_writes)},
      {"fs.evictions_per_req", per_req(d.evictions)},
      {"support.clock_advance_self_ns_per_req", median(clock_ns)},
      {"recovery.on_crash_us_p50", percentile(a.on_crash_us, 0.5)},
      {"recovery.on_crash_us_max", percentile(a.on_crash_us, 1.0)},
      {"recovery.cpu_share", median(crash_share_cpu)},
      {"recovery.recoveries", rec},
      {"recovery.error_replies", static_cast<double>(d.error_replies)},
      {"recovery.quarantines", static_cast<double>(d.quarantines)},
      {"os.boot_ms", median(boot_ms)},
      {"fi.fired", static_cast<double>(r0.fired)},
      {"bench.generator_cpu_share", median(gen_share)},
      {"bench.backlog_max", static_cast<double>(a.backlog_max)},
      {"trace.overhead_share", median(traced_cpu_per_req) / median(plain_cpu_per_req) - 1.0},
      {"trace.coverage", coverage},
      {"req_per_cpu_s", 1.0 / median(plain_cpu_per_req) * completed / due},
      {"lat_p50_ticks", lat_p50},
      {"lat_p999_ticks", lat_p999},
      {"capacity_rpkt", capacity},
      {"err_share", err_share},
      {"blackout_us_p50", percentile(a.blackout_us, 0.5)},
      {"blackout_us_p90", percentile(a.blackout_us, 0.9)},
  };
  print_result(correct, attempted, failed, true, v);
  return 0;
}

// ---------------------------------------------------------------------------
// Fault campaign

/// Every kCampaignStride-th injection of the full Enhanced fail-stop plan,
/// from plan index 0. On the plan this repository ships (413 injections, 10
/// crash-class of which 4 run into the 20M-step hang budget) the subsample
/// holds 104 injections: 2 crash-class (1.9% vs the plan's 2.4%), one of
/// them a hang, so wedged-run detection dominates its CPU time as it does
/// the full plan's.
constexpr std::size_t kCampaignStride = 4;
constexpr int kPlanSetups = 40;  // plan_failstop runs per invocation (setup_s median)

int run_campaign_workload(const Options& opt) {
  using workload::RunClass;
  const double run_cpu0 = cpu_now();
  const double run_wall0 = wall_now();

  std::vector<double> setup_s;
  std::vector<workload::Injection> plan;
  for (int i = 0; i < kPlanSetups; ++i) {
    const double t0 = cpu_now();
    plan = workload::plan_failstop();
    setup_s.push_back(cpu_now() - t0);
  }
  std::vector<workload::Injection> sub;
  for (std::size_t i = 0; i < plan.size(); i += kCampaignStride) sub.push_back(plan[i]);

  // The plan is the campaign's whole input and plan_failstop takes no seed,
  // so --seed changes nothing here: every seed runs the same subsample, in
  // plan order (a seeded order changed heap fragmentation, and with it
  // peak_rss_mib, from seed to seed).
  struct CampaignRep {
    double cpu = 0.0;            // without the sampler's own time
    double host_scale = 1.0;     // kSampleRefS / mean sample time (untraced)
    std::vector<RunClass> cls;   // by subsample index
    std::uint64_t fired = 0;     // armed faults that triggered
    std::uint64_t digest = 0;
    bool traced = false;
  };
  std::vector<CampaignRep> reps;
  std::vector<double> boot_ms;
  Ledger first_ledger;
  // One repetition is ~17 s; run.py compares digests across processes, and
  // a traced run needs a plain and a traced repetition.
  const int min_reps = opt.trace ? 2 : 1;
  bool correct = true;
  while (static_cast<int>(reps.size()) < min_reps ||
         (cpu_now() - run_cpu0 < opt.seconds && reps.size() < 50)) {
    CampaignRep rep;
    rep.traced = opt.trace && reps.size() % 2 == 1;
    Ledger ledger;
    if (rep.traced) {
      g_ledger = &ledger;
      // Boot cost as run_one_injection pays it, measured beside the plan.
      for (int i = 0; i < 3; ++i) {
        const double t0 = cpu_now();
        {
          SpanScope s(SpanKind::kBoot);
          os::OsConfig cfg;
          cfg.policy = seep::Policy::kEnhanced;
          os::OsInstance inst(cfg);
          workload::register_suite_programs(inst.programs());
          inst.boot();
        }
        boot_ms.push_back((cpu_now() - t0) * 1e3);
      }
    }
    rep.cls.assign(sub.size(), RunClass::kPass);
    const std::uint64_t fired0 = fi::Registry::instance().injections_fired();
    if (!opt.trace) start_sampler();
    const double c0 = cpu_now();
    {
      SpanScope phase(SpanKind::kPhase);
      for (std::size_t idx = 0; idx < sub.size(); ++idx) {
        SpanScope s(SpanKind::kInjection, -1, idx);
        rep.cls[idx] = workload::run_one_injection(seep::Policy::kEnhanced, sub[idx]);
        s.set_tag(static_cast<std::uint8_t>(rep.cls[idx]));
      }
    }
    rep.cpu = cpu_now() - c0;
    if (!opt.trace) {
      const std::vector<double> samples = stop_sampler();
      double sum = 0.0;
      for (const double x : samples) sum += x;
      rep.cpu -= sum;
      if (!samples.empty()) rep.host_scale = kSampleRefS * static_cast<double>(samples.size()) / sum;
    }
    rep.fired = fi::Registry::instance().injections_fired() - fired0;
    g_ledger = nullptr;
    Digest dg;
    for (const RunClass c : rep.cls) dg.add(static_cast<std::uint64_t>(c));
    dg.add(rep.fired);
    rep.digest = dg.h;
    if (!reps.empty() && rep.digest != reps.front().digest) {
      std::fprintf(stderr, "osbench: campaign repetition %zu classified differently\n",
                   reps.size());
      correct = false;
    }
    if (rep.traced && first_ledger.spans.empty()) first_ledger = std::move(ledger);
    reps.push_back(std::move(rep));
  }

  // Untraced CPU times are scaled by the in-run sampler's host speed.
  const CampaignRep& r0 = reps.front();
  std::array<std::uint64_t, 4> totals{};
  for (const RunClass c : r0.cls) ++totals[static_cast<std::size_t>(c)];
  const double n = static_cast<double>(sub.size());
  std::vector<double> work, raw_work, host_speed, plain_cpu, traced_cpu;
  std::uint64_t attempted = 0;
  for (const CampaignRep& r : reps) {
    attempted += sub.size();
    work.push_back(n / (r.cpu * r.host_scale));
    raw_work.push_back(n / r.cpu);
    host_speed.push_back(r.host_scale);
    (r.traced ? traced_cpu : plain_cpu).push_back(r.cpu);
  }
  if (sub.empty()) correct = false;

  std::printf("workload campaign seed %llu: %zu of %zu plan injections (every %zuth), "
              "%zu repetitions, digest %016llx\n",
              static_cast<unsigned long long>(opt.seed), sub.size(), plan.size(),
              kCampaignStride, reps.size(), static_cast<unsigned long long>(r0.digest));
  std::printf("  class totals: pass %llu  fail %llu  shutdown %llu  crash %llu\n",
              static_cast<unsigned long long>(totals[0]), static_cast<unsigned long long>(totals[1]),
              static_cast<unsigned long long>(totals[2]), static_cast<unsigned long long>(totals[3]));
  std::printf("  inj_per_cpu_s %.3f  plan set-up %.4f s\n", median(raw_work), median(setup_s));
  if (!opt.trace) {
    std::printf("  host speed %.3f of the sampler's reference: %.3f inj per reference CPU s\n",
                median(host_speed), median(work));
  }
  std::printf("  host: cpu %.2f s, wall %.2f s\n", cpu_now() - run_cpu0, wall_now() - run_wall0);

  Values v;
  // plan_failstop runs before the repetitions, outside the sampler; the
  // repetitions' host speed scales it.
  v["setup_s"] = median(setup_s) * median(host_speed);
  v["work_per_cpu_s"] = median(work);
  v["pass_share"] = static_cast<double>(totals[0]) / n;
  v["peak_rss_mib"] = peak_rss_mib();
  if (!opt.trace) {
    print_result(correct, attempted, 0, false, v);
    return 0;
  }

  // Per-class injection time and the wedged share, from the traced reps.
  std::array<std::vector<double>, 4> cls_ms;
  double wedged = 0.0, total = 0.0;
  const SelfTimes t = self_times(first_ledger);
  for (const Span& s : first_ledger.spans) {
    if (s.kind != SpanKind::kInjection) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    cls_ms[s.tag].push_back(ms);
    total += ms;
    if (s.tag == static_cast<std::uint8_t>(RunClass::kCrash)) wedged += ms;
  }
  const double coverage = t.self_s[static_cast<int>(SpanKind::kInjection)] / traced_cpu.front();
  if (!coverage_ok(coverage)) correct = false;
  if (!opt.spans_out.empty()) write_spans(first_ledger, opt.spans_out);

  v = {
      {"os.boot_ms", median(boot_ms)},
      {"workload.inj_ms_p50.pass", median(cls_ms[0])},
      {"workload.inj_ms_p50.fail", median(cls_ms[1])},
      {"workload.inj_ms_p50.shutdown", median(cls_ms[2])},
      {"workload.inj_ms_p50.crash", median(cls_ms[3])},
      {"workload.wedged_cpu_share", ratio(wedged, total)},
      {"fi.injections.pass", static_cast<double>(totals[0])},
      {"fi.injections.fail", static_cast<double>(totals[1])},
      {"fi.injections.shutdown", static_cast<double>(totals[2])},
      {"fi.injections.crash", static_cast<double>(totals[3])},
      {"fi.fired", static_cast<double>(r0.fired)},
      {"bench.generator_cpu_share",
       ratio(t.self_s[static_cast<int>(SpanKind::kPhase)], traced_cpu.front())},
      {"trace.overhead_share", median(traced_cpu) / median(plain_cpu) - 1.0},
      {"trace.coverage", coverage},
      {"inj_per_cpu_s", n / median(plain_cpu)},
      {"crash_share", static_cast<double>(totals[3]) / n},
  };
  print_result(correct, attempted, 0, true, v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "osbench: %s needs a value\n", a.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      std::fprintf(stderr, "osbench: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload == "serve-hit") return run_serve(kServeHit, opt);
  if (opt.workload == "serve-miss") return run_serve(kServeMiss, opt);
  if (opt.workload == "serve-fault") return run_serve(kServeFault, opt);
  if (opt.workload == "campaign") return run_campaign_workload(opt);
  std::fprintf(stderr, "osbench: unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
