// FOM (fault-tolerant operation machine) request executor core.
//
// Modeled on cortx-motr's reqh/FOM architecture: instead of parking a worker
// fiber for the duration of a slow operation, each in-flight request becomes
// a small state machine that *yields* at declared blocking points and is
// resumed by the completion it was waiting for. One server thereby
// interleaves many requests without threads, and — the part the paper never
// faced — the SEEP window machinery stays live across the wait:
//
//   admit   -> kRunning   window opens as usual at dispatch
//   park    -> kParked    the attempt's undo entries are rolled back to the
//                         admission mark first, so a parked FOM owns ZERO
//                         live undo entries (the epoch-occupancy invariant);
//                         then Window::fom_park() suspends the window. One
//                         park waits for every read of the missing span
//   resume  -> kRunning   once the last of those reads lands:
//                         Window::fom_resume() re-checkpoints and reopens;
//                         the handler re-runs from scratch against a cache
//                         warmed by the completed reads
//   finish  -> gone       reply sent, record retired
//   abort   -> gone       component restarted under the FOM: the executor
//                         reconciles the orphaned requester with E_CRASH
//
// The invariant that makes mid-flight rollback sound: at any instant at most
// ONE request (the currently executing one) has live undo entries, so a full
// undo-log rollback restores a state consistent with every parked request
// simply re-running later. Parked FOMs legitimately survive a rollback
// recovery — their pending disk completions resume them afterwards.
//
// FomCore is deliberately standalone (no kernel/window dependencies) so the
// state-machine lifecycle is unit-testable in isolation; Vfs composes it
// with the window/undo plumbing. All containers are keyed by integer ids —
// never pointers — per the determinism rules.
#pragma once

#include <cstdint>
#include <map>

#include "kernel/message.hpp"
#include "support/clock.hpp"
#include "support/common.hpp"

namespace osiris::servers {

enum class FomState : std::uint8_t {
  kRunning,  // currently executing (at most one FOM at a time)
  kParked,   // waiting on an asynchronous completion; zero live undo entries
};

struct FomRecord {
  std::uint64_t id = 0;
  kernel::Message req{};         // original request, re-run verbatim on resume
  FomState state = FomState::kRunning;
  std::uint32_t retries = 0;     // parks taken by this request so far
  bool resumed = false;          // true once the request re-ran at least once
  Tick parked_at = 0;            // virtual tick of the most recent park
  bool sync_fallback = false;    // retry cap hit: misses go synchronous now
  std::uint32_t outstanding = 0;  // disk reads of the current park not yet landed
};

struct FomStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t parks = 0;
  std::uint64_t resumes = 0;
  std::uint64_t retries = 0;         // handler re-runs (== resumes that re-ran)
  std::uint64_t aborts = 0;          // FOMs dropped by restart/quarantine
  std::uint64_t sync_fallbacks = 0;  // misses served synchronously (cap/closed window)
  std::uint64_t in_flight_high_water = 0;
  std::uint64_t wait_ticks_total = 0;  // virtual ticks spent parked, summed
};

/// Bookkeeping for every live FOM of one server. Ids are dense and monotonic;
/// the std::map iteration order is therefore admission order, which keeps
/// abort sweeps deterministic.
class FomCore {
 public:
  /// Admit a new request; returns its FOM id.
  std::uint64_t admit(const kernel::Message& req) {
    const std::uint64_t id = next_id_++;
    FomRecord& r = live_[id];
    r.id = id;
    r.req = req;
    ++stats_.admitted;
    if (live_.size() > stats_.in_flight_high_water) {
      stats_.in_flight_high_water = live_.size();
    }
    return id;
  }

  /// Park `id` until `reads` disk reads have landed (see land()).
  void park(std::uint64_t id, Tick now, std::uint32_t reads) {
    FomRecord& r = get(id);
    OSIRIS_ASSERT(r.state == FomState::kRunning && reads > 0);
    r.state = FomState::kParked;
    r.parked_at = now;
    r.outstanding = reads;
    ++r.retries;
    ++stats_.parks;
  }

  /// One of parked `id`'s reads landed; true once none is outstanding.
  bool land(std::uint64_t id) {
    FomRecord& r = get(id);
    OSIRIS_ASSERT(r.state == FomState::kParked && r.outstanding > 0);
    return --r.outstanding == 0;
  }

  void resume(std::uint64_t id, Tick now) {
    FomRecord& r = get(id);
    OSIRIS_ASSERT(r.state == FomState::kParked && r.outstanding == 0);
    r.state = FomState::kRunning;
    r.resumed = true;
    stats_.wait_ticks_total += now - r.parked_at;
    ++stats_.resumes;
    ++stats_.retries;
  }

  void finish(std::uint64_t id) {
    OSIRIS_ASSERT(live_.erase(id) == 1);
    ++stats_.completed;
  }

  /// Drop one FOM without completing it (restart/quarantine abort).
  void abort(std::uint64_t id) {
    OSIRIS_ASSERT(live_.erase(id) == 1);
    ++stats_.aborts;
  }

  void note_sync_fallback() { ++stats_.sync_fallbacks; }

  [[nodiscard]] bool contains(std::uint64_t id) const { return live_.count(id) != 0; }
  [[nodiscard]] FomRecord& get(std::uint64_t id) {
    const auto it = live_.find(id);
    OSIRIS_ASSERT(it != live_.end());
    return it->second;
  }
  [[nodiscard]] std::size_t in_flight() const noexcept { return live_.size(); }
  [[nodiscard]] const std::map<std::uint64_t, FomRecord>& live() const noexcept { return live_; }
  [[nodiscard]] const FomStats& stats() const noexcept { return stats_; }

 private:
  std::map<std::uint64_t, FomRecord> live_;  // id -> record, admission-ordered
  std::uint64_t next_id_ = 1;
  FomStats stats_;
};

}  // namespace osiris::servers
