// Recovery-window state machine (paper SIV-B, Figure 2).
//
// One Window per component. It opens at the top of the request processing
// loop (which is also where the checkpoint — an undo-log reset — is taken)
// and closes at the first outbound SEEP the policy forbids, or when a
// cooperative thread yields (SIV-E). While open, rolling back the undo log
// provably returns the whole system to a consistent state; once closed, the
// undo log is discarded and instrumentation stops logging (the SIV-D
// optimization).
//
// The Window also owns the recovery-coverage accounting behind Table I:
// every fi:: probe reports a basic-block execution, attributed to
// inside/outside the window.
#pragma once

#include <cstdint>
#include <map>

#include "ckpt/context.hpp"
#include "seep/policy.hpp"
#include "trace/trace.hpp"

namespace osiris::seep {

// Close-cause codes recorded in kWindowClose events. Mirrored as plain
// integers so OSIRIS_TRACE=OFF builds never reference trace types; the
// static_assert keeps them in lockstep with trace::CloseCause.
inline constexpr std::uint64_t kCloseCauseSeep = 0;
inline constexpr std::uint64_t kCloseCauseYield = 1;
inline constexpr std::uint64_t kCloseCauseEndOfRequest = 2;
inline constexpr std::uint64_t kCloseCauseFomPark = 3;
#if OSIRIS_TRACE_ENABLED
static_assert(kCloseCauseSeep == static_cast<std::uint64_t>(trace::CloseCause::kSeep) &&
              kCloseCauseYield == static_cast<std::uint64_t>(trace::CloseCause::kYield) &&
              kCloseCauseEndOfRequest ==
                  static_cast<std::uint64_t>(trace::CloseCause::kEndOfRequest) &&
              kCloseCauseFomPark == static_cast<std::uint64_t>(trace::CloseCause::kFomPark));
#endif

struct WindowStats {
  std::uint64_t opened = 0;
  std::uint64_t closed_by_seep = 0;
  std::uint64_t closed_by_yield = 0;
  std::uint64_t tainted = 0;
  std::uint64_t fom_parks = 0;    // windows suspended by an executor park
  std::uint64_t fom_resumes = 0;  // windows reopened by an executor resume
  std::uint64_t probe_hits_inside = 0;
  std::uint64_t probe_hits_outside = 0;

  [[nodiscard]] double coverage() const noexcept {
    const std::uint64_t total = probe_hits_inside + probe_hits_outside;
    return total == 0 ? 0.0 : static_cast<double>(probe_hits_inside) / static_cast<double>(total);
  }
};

/// Per-message-type window accounting: which request opened the window when
/// it closed or tainted. This is the runtime ground truth the static
/// handler-granularity predictions (osiris-analyze Pass 4) are validated
/// against.
struct MsgWindowStats {
  std::uint64_t opened = 0;
  std::uint64_t closed_by_seep = 0;
  std::uint64_t closed_by_yield = 0;
  std::uint64_t tainted = 0;
  std::uint64_t fom_parks = 0;
  std::uint64_t fom_resumes = 0;
};

class Window {
 public:
  Window(Policy policy, ckpt::Context& ctx) : policy_(policy), ctx_(ctx) {}

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  [[nodiscard]] Policy policy() const noexcept { return policy_; }
  [[nodiscard]] bool is_open() const noexcept { return open_; }

  /// True when a requester-scoped SEEP left the window open under the
  /// extended policy: recovery must kill the requester to reconcile.
  [[nodiscard]] bool is_tainted() const noexcept { return tainted_; }

  /// Top of the request processing loop: take the checkpoint and open the
  /// window. Under non-window policies this is a no-op. `msg_type` (when
  /// nonzero) attributes this window's eventual close/taint to the request
  /// being processed, feeding the per-handler stats.
  void open(std::uint32_t msg_type = 0) {
    if (!policy_uses_windows(policy_)) return;
    ctx_.log().checkpoint();
    open_ = true;
    tainted_ = false;
    current_msg_ = msg_type;
    ctx_.set_window_open(true);
    ++stats_.opened;
    if (msg_type != 0) ++per_msg_[msg_type].opened;
    OSIRIS_TRACE_EVENT(kWindowOpen, ctx_.trace_id());
  }

  /// Called *before* each outbound SEEP message leaves the component.
  void on_outbound(SeepClass cls) {
    if (!open_) return;
    if (policy_taints_window(policy_, cls)) {
      if (!tainted_) {
        ++stats_.tainted;
        if (current_msg_ != 0) ++per_msg_[current_msg_].tainted;
      }
      tainted_ = true;
      return;  // window survives: reconciliation will kill the requester
    }
    if (policy_closes_window(policy_, cls)) {
      close_common(kCloseCauseSeep, static_cast<std::uint64_t>(cls));
      ++stats_.closed_by_seep;
      if (current_msg_ != 0) ++per_msg_[current_msg_].closed_by_seep;
    }
  }

  /// Forced close when a cooperative thread yields mid-request (SIV-E).
  void on_yield() {
    if (open_) {
      close_common(kCloseCauseYield, 0);
      ++stats_.closed_by_yield;
      if (current_msg_ != 0) ++per_msg_[current_msg_].closed_by_yield;
    }
  }

  /// FOM park: the executor suspends the current request on a declared
  /// blocking point. The window goes dormant — unlike on_yield() this does
  /// NOT discard the undo log (the executor already rolled the attempt back
  /// to its mark, so the surviving log still matches the checkpoint) and is
  /// not a coverage failure: the request resumes with a fresh window.
  void fom_park() {
    if (!open_) return;
    OSIRIS_TRACE_EVENT(kWindowClose, ctx_.trace_id(), kCloseCauseFomPark);
    open_ = false;
    tainted_ = false;
    ctx_.set_window_open(false);
    ++stats_.fom_parks;
    if (current_msg_ != 0) ++per_msg_[current_msg_].fom_parks;
  }

  /// FOM resume: reopen the window for a parked request's re-run. Takes the
  /// checkpoint like open() but does not count as a new window in `opened`
  /// (a parked+resumed request is still one request — useful_work() and the
  /// health monitor keep their one-window-per-request meaning).
  void fom_resume(std::uint32_t msg_type) {
    if (!policy_uses_windows(policy_)) return;
    ctx_.log().checkpoint();
    open_ = true;
    tainted_ = false;
    current_msg_ = msg_type;
    ctx_.set_window_open(true);
    ++stats_.fom_resumes;
    if (msg_type != 0) ++per_msg_[msg_type].fom_resumes;
    OSIRIS_TRACE_EVENT(kWindowOpen, ctx_.trace_id(), 1);  // a0=1: resume reopen
  }

  /// End of request processing: the window simply ends (no statistics —
  /// the next open() re-checkpoints).
  void end_of_request() {
    if (open_) {
      OSIRIS_TRACE_EVENT(kWindowClose, ctx_.trace_id(), kCloseCauseEndOfRequest);
    }
    open_ = false;
    tainted_ = false;
    ctx_.set_window_open(false);
  }

  /// Coverage probe (invoked by fi:: basic-block probes).
  void probe_hit() noexcept {
    if (open_) {
      ++stats_.probe_hits_inside;
    } else {
      ++stats_.probe_hits_outside;
    }
  }

  [[nodiscard]] const WindowStats& stats() const noexcept { return stats_; }

  /// Close/taint accounting keyed by the message type passed to open().
  [[nodiscard]] const std::map<std::uint32_t, MsgWindowStats>& per_msg_stats() const noexcept {
    return per_msg_;
  }

 private:
  void close_common([[maybe_unused]] std::uint64_t cause,
                    [[maybe_unused]] std::uint64_t seep_cls) {
    OSIRIS_TRACE_EVENT(kWindowClose, ctx_.trace_id(), cause, seep_cls);
    open_ = false;
    ctx_.set_window_open(false);
    // Past the window the checkpoint can never be restored: discard the log
    // now and stop paying for instrumentation (SIV-D).
    ctx_.log().checkpoint();
  }

  Policy policy_;
  ckpt::Context& ctx_;
  bool open_ = false;
  bool tainted_ = false;
  std::uint32_t current_msg_ = 0;
  WindowStats stats_;
  std::map<std::uint32_t, MsgWindowStats> per_msg_;
};

}  // namespace osiris::seep
