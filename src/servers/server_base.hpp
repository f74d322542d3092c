// ServerBase: the event-driven programming model of Figure 1, with the
// checkpoint/recovery-window discipline wired in.
//
// Every system server derives from ServerBase<State>, where State is the
// server's entire recoverable data section: a trivially-copyable struct
// composed of ckpt::Cell / Array / Table / Str members. The base class:
//
//   - dispatches incoming messages through a flat handler table populated by
//     on()/on_notify()/on_reply() registrations against the MsgSpec registry
//     (one array load per dispatch, no hashing, no per-server switch);
//   - validates every incoming request against the spec's arg/text schema and
//     fail-stops on unregistered types or malformed requests (paper SII-E);
//   - opens the recovery window (and takes the checkpoint — an undo-log
//     reset) at the "top of the loop", i.e. when a replyable request
//     arrives;
//   - routes all outbound communication through SEEP wrappers that consult
//     the static classification and the active policy, closing the window
//     when required (Figure 2);
//   - activates the server's checkpointing context and fault-injection
//     attribution for the duration of the dispatch, including across nested
//     calls into other servers;
//   - answers heartbeat pings from the Recovery Server;
//   - implements the recovery::Recoverable interface over State.
//
// Defensive checks in handlers use SRV_CHECK, which converts would-be
// fail-silent misbehaviour into a fail-stop fault (paper SII-E).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "ckpt/cell.hpp"
#include "ckpt/context.hpp"
#include "fi/registry.hpp"
#include "kernel/faults.hpp"
#include "kernel/kernel.hpp"
#include "recovery/recoverable.hpp"
#include "seep/policy.hpp"
#include "seep/seep.hpp"
#include "seep/window.hpp"
#include "servers/protocol.hpp"

namespace osiris::servers {

/// Defensive-programming trap: a violated invariant is a fail-stop fault of
/// the *current component*, contained by the kernel at the dispatch boundary.
[[noreturn]] inline void fail_stop(const char* what) {
  throw kernel::FailStopFault(what, /*site_id=*/0);
}

#define SRV_CHECK(cond, what)                          \
  do {                                                 \
    if (!(cond)) ::osiris::servers::fail_stop(what);   \
  } while (0)

/// RAII attribution of fi:: probes to the current component.
class FiScope {
 public:
  FiScope(seep::Window* window, int endpoint) : saved_(fi::Registry::instance().active()) {
    fi::Registry::instance().set_active({window, endpoint});
  }
  ~FiScope() { fi::Registry::instance().set_active(saved_); }
  FiScope(const FiScope&) = delete;
  FiScope& operator=(const FiScope&) = delete;

 private:
  fi::ActiveComponent saved_;
};

class ServerCommon : public kernel::IServer, public recovery::Recoverable {
 public:
  ServerCommon(kernel::Kernel& kernel, kernel::Endpoint ep, std::string name,
               const seep::Classification& classification, seep::Policy policy,
               ckpt::Mode ckpt_mode)
      : kernel_(kernel),
        ep_(ep),
        name_(std::move(name)),
        classification_(classification),
        ctx_(ckpt_mode),
        window_(policy, ctx_) {
    // Checkpoint/window events attribute to this server's endpoint.
    ctx_.set_trace_id(ep_.value);
  }

  // --- IServer ---------------------------------------------------------
  [[nodiscard]] std::string_view name() const final { return name_; }

  std::optional<kernel::Message> dispatch(const kernel::Message& m) final {
    ckpt::Context::Scope ctx_scope(&ctx_);
    FiScope fi_scope(&window_, ep_.value);

    // Heartbeat protocol: answered by the base class in every server.
    if (m.type == (RS_PING | kernel::kNotifyBit)) {
      OSIRIS_TRACE_EVENT(kHeartbeatPong, ep_.value,
                         static_cast<std::uint64_t>(kernel::kRsEp.value));
      kernel_.notify(ep_, kernel::kRsEp, RS_PONG);
      return std::nullopt;
    }

    // A type the spec table never declared reaching a server is a protocol
    // violation, not a request to answer: fail-stop instead of the silent
    // conservative fall-through (paper SII-E).
    const MsgSpec* spec = find_msg_spec(m.type);
    SRV_CHECK(spec != nullptr, "dispatch: unregistered message type");

    const bool is_notify = kernel::is_notify(m.type);
    const bool is_reply = kernel::is_reply(m.type);
    if (!is_reply) {
      // Malformed request → fail-stop: args outside the schema must be zero,
      // text only where the schema declares it, and the notify bit must
      // match the spec's delivery kind. (Replies are exempt: their args
      // carry status/results, shaped by the reply convention instead.)
      for (int i = spec->args; i < 6; ++i) {
        SRV_CHECK(m.arg[i] == 0, "dispatch: request args outside the message schema");
      }
      SRV_CHECK(m.text.empty() || spec->text, "dispatch: text on a textless message");
      SRV_CHECK(is_notify == spec->notify(), "dispatch: delivery kind contradicts the spec");
    }

    // Top of the request processing loop: checkpoint + open the recovery
    // window, but only for requests that reconciliation could answer with
    // an error reply. Notifications have no requester to answer, and an
    // asynchronous *reply* continues a previous request (Figure 1) whose
    // sender is long gone — in both cases a rollback could never be
    // reconciled, so the window (conservatively) stays closed.
    if (spec->replyable() && !is_notify && !is_reply) {
      // Attribute the window to the request's message type: the per-msg
      // close/taint stats are the runtime ground truth for the Pass 4
      // handler-granularity predictions.
      window_.open(m.type);
    }

    on_message(m);

    // Flat handler-table dispatch: the spec row index is the handler slot.
    const HandlerSlot& slot = handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)];
    const MemberHandler h = is_notify ? slot.notify : is_reply ? slot.reply : slot.request;
    std::optional<kernel::Message> reply;
    if (h != nullptr) {
      reply = (this->*h)(m);
    } else if (!is_notify && !is_reply && spec->replyable()) {
      // A registered type this server has no handler for: tell the caller.
      // Unhandled notifications and stray replies have no one to answer.
      reply = kernel::make_reply(m.type, kernel::E_NOSYS);
    }
    window_.end_of_request();

    // Storm realization (liveness fault model): a kHandlerSpin/kChannelFlood
    // probe that fired during this dispatch never throws — it parks a plan
    // in the registry, picked up here at the dispatch boundary and turned
    // into traffic. The probe's own component (the innermost dispatch on a
    // nested call stack) always drains its firing first, so attribution is
    // exact. An FI_SPIN dispatch instead sustains the storm one-for-one
    // (independent of which probe site hosts the fault — the site only has
    // to fire once to seed the burst); any probe re-fire it recorded is
    // discarded so the backlog stays constant instead of growing
    // geometrically. Disarm (at quarantine) stops the sustain cold.
    const fi::Registry::StormPlan storm = fi::Registry::instance().take_pending_storm();
    if (is_notify && (m.type & ~kernel::kNotifyBit) == FI_SPIN) {
      if (fi::Registry::instance().spin_armed_for(ep_.value)) {
        // analyze-suppress(raw-kernel-send): injected storm traffic models
        // a compromised component and must bypass SEEP accounting.
        kernel_.notify(ep_, ep_, FI_SPIN);
      }
    } else if (storm.type != fi::FaultType::kNone) {
      activate_storm(storm);
    }
    return reply;
  }

  /// Useful-work counter for the kernel's health monitor: recovery windows
  /// opened plus deferred replies sent. Storm traffic (FI_SPIN/FI_FLOOD
  /// notes) moves neither, which is what makes it read as fever.
  [[nodiscard]] std::uint64_t useful_work() const final {
    return window_.stats().opened + deferred_replies_;
  }

  /// True when this server registered a handler for the given type's natural
  /// delivery kind (requests/sends -> on(), notifications -> on_notify()).
  [[nodiscard]] bool has_handler(std::uint32_t type) const {
    const MsgSpec* spec = find_msg_spec(type);
    if (spec == nullptr) return false;
    const HandlerSlot& slot = handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)];
    return (spec->notify() ? slot.notify : slot.request) != nullptr;
  }

  /// True when this server registered a reply continuation for the type.
  [[nodiscard]] bool has_reply_handler(std::uint32_t type) const {
    const MsgSpec* spec = find_msg_spec(type);
    if (spec == nullptr) return false;
    return handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)].reply != nullptr;
  }

  // --- Recoverable ------------------------------------------------------
  [[nodiscard]] kernel::Endpoint endpoint() const final { return ep_; }
  ckpt::Context& ckpt_context() final { return ctx_; }
  seep::Window& window() final { return window_; }
  void reinitialize() override { init_state(); }
  void on_restored(bool /*rolled_back*/) override {}
  std::byte* aux_section() final { return aux_base_; }
  [[nodiscard]] std::size_t aux_section_size() const final { return aux_len_; }
  [[nodiscard]] ckpt::PageStore* page_store() final { return pages_.get(); }

 protected:
  /// Handler signature: process one message, return the reply (or nullopt if
  /// the reply is deferred / the message needs none).
  using MemberHandler = std::optional<kernel::Message> (ServerCommon::*)(const kernel::Message&);

  /// Per-message prologue hook, called once per dispatched message after the
  /// window decision and before the handler. Servers use it for their
  /// fault-injection block probe and per-request accounting.
  virtual void on_message(const kernel::Message& /*m*/) {}

  /// Register the handler for a request or fire-and-forget send.
  template <typename ServerT>
  void on(std::uint32_t type,
          std::optional<kernel::Message> (ServerT::*fn)(const kernel::Message&)) {
    const MsgSpec* spec = find_msg_spec(type);
    OSIRIS_ASSERT(spec != nullptr && !spec->notify());
    handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)].request =
        static_cast<MemberHandler>(fn);
  }

  /// Register the handler for a notification (spec kind NOTE).
  template <typename ServerT>
  void on_notify(std::uint32_t type,
                 std::optional<kernel::Message> (ServerT::*fn)(const kernel::Message&)) {
    const MsgSpec* spec = find_msg_spec(type);
    OSIRIS_ASSERT(spec != nullptr && spec->notify());
    handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)].notify =
        static_cast<MemberHandler>(fn);
  }

  /// Register the continuation for an asynchronous *reply* to an earlier
  /// request this server sent (Figure 1's split request processing).
  template <typename ServerT>
  void on_reply(std::uint32_t type,
                std::optional<kernel::Message> (ServerT::*fn)(const kernel::Message&)) {
    const MsgSpec* spec = find_msg_spec(type);
    OSIRIS_ASSERT(spec != nullptr && spec->replyable());
    handlers_[static_cast<std::size_t>(spec - kMsgSpecTable)].reply =
        static_cast<MemberHandler>(fn);
  }

  /// Boot-time (and stateless-restart) initialization of State.
  virtual void init_state() = 0;

  /// Wire an MB+ heap region (a PagedTable's buffer) into the recovery
  /// story (DESIGN.md §17). The region becomes the component's aux section
  /// — appended to the clone/boot images by the engine — and, when the page
  /// tier is enabled, gets a PageStore so stores to it take page-granular
  /// CoW snapshots instead of arena records. Call once, from the derived
  /// constructor, before the engine registers the component.
  void set_aux_region(std::byte* base, std::size_t len, const ckpt::PagesConfig& pages) {
    OSIRIS_ASSERT(aux_base_ == nullptr);
    aux_base_ = base;
    aux_len_ = len;
    if (pages.enabled) {
      pages_ = std::make_unique<ckpt::PageStore>(pages);
      pages_->register_region(base, len);
      ctx_.set_page_store(pages_.get());
    }
  }

  // --- SEEP-wrapped outbound communication ---------------------------------

  /// Synchronous sendrec to another server through a SEEP.
  kernel::Message seep_call(kernel::Endpoint dst, kernel::Message m) {
    window_.on_outbound(classification_.get(m.type & ~kernel::kNotifyBit).seep);
    return kernel_.call(ep_, dst, std::move(m));
  }

  /// Asynchronous send through a SEEP.
  void seep_send(kernel::Endpoint dst, kernel::Message m) {
    window_.on_outbound(classification_.get(m.type & ~kernel::kNotifyBit).seep);
    kernel_.send(ep_, dst, std::move(m));
  }

  /// Notification through a SEEP.
  void seep_notify(kernel::Endpoint dst, std::uint32_t type) {
    window_.on_outbound(classification_.get(type).seep);
    kernel_.notify(ep_, dst, type);
  }

  /// Batched notification fan-out through a SEEP: one classification lookup
  /// and one window transition cover the whole batch (every element carries
  /// the same type, so the per-send on_outbound calls would be no-ops after
  /// the first — taint latches, close is idempotent). The kernel still
  /// queues and traces each notification individually, so delivery order
  /// and the event trace are identical to a seep_notify loop.
  void seep_notify_batch(std::span<const kernel::Endpoint> dsts, std::uint32_t type) {
    if (dsts.empty()) return;
    window_.on_outbound(classification_.get(type).seep);
    for (const kernel::Endpoint dst : dsts) kernel_.notify(ep_, dst, type);
  }

  /// Deferred reply to a previously postponed request (e.g. PM waking a
  /// waiting parent, VFS completing a disk-blocked read). Deferred replies
  /// are mid-request sends to a third party, so they count as
  /// state-modifying SEEPs — unlike the in-band reply returned by handle().
  void seep_deferred_reply(kernel::Endpoint dst, kernel::Message m) {
    window_.on_outbound(seep::SeepClass::kStateModifying);
    ++deferred_replies_;
    kernel_.reply_to(dst, std::move(m));
  }

  kernel::Kernel& kern() noexcept { return kernel_; }
  [[nodiscard]] const seep::Classification& classification() const noexcept {
    return classification_;
  }

 private:
  /// One slot per spec row; the three delivery kinds dispatch independently.
  struct HandlerSlot {
    MemberHandler request = nullptr;
    MemberHandler notify = nullptr;
    MemberHandler reply = nullptr;
  };

  /// Virtual ticks between flood-pump bursts. Clock-driven on purpose: the
  /// pump keeps the clock's callback queue alive, so the storm persists
  /// across otherwise-idle stretches until disarmed or parked. Short next
  /// to disk latencies (40/60) so flood traffic outpaces the request flow
  /// it rides on.
  static constexpr Tick kFloodPumpPeriod = 10;

  /// Turn a recorded storm firing into traffic. kHandlerSpin seeds a
  /// bounded burst of self-notes; dispatch() then sustains the storm
  /// one-for-one per FI_SPIN delivered (constant queue pressure — an
  /// unbounded re-seed would grow the backlog geometrically and an
  /// immediate 1-for-1 alone would never start it). kChannelFlood starts a
  /// self-rescheduling clock pump against the victim.
  void activate_storm(const fi::Registry::StormPlan& storm) {
    fi::Registry::instance().note_storm_start(kernel_.clock().now());
    if (storm.type == fi::FaultType::kHandlerSpin) {
      for (std::uint32_t i = 0; i < storm.burst; ++i) {
        // analyze-suppress(raw-kernel-send): injected storm traffic models
        // a compromised component and must bypass SEEP accounting.
        kernel_.notify(ep_, ep_, FI_SPIN);
      }
      return;
    }
    if (flood_pump_active_ || storm.victim < 0) return;
    flood_pump_active_ = true;
    schedule_flood_pump(kernel::Endpoint{storm.victim}, storm.burst);
  }

  void schedule_flood_pump(kernel::Endpoint victim, std::uint32_t burst) {
    kernel_.clock().call_after(kFloodPumpPeriod, [this, victim, burst] {
      if (!fi::Registry::instance().storm_armed_for(ep_.value)) {
        flood_pump_active_ = false;  // disarmed (quarantine) — storm over
        return;
      }
      for (std::uint32_t i = 0; i < burst; ++i) {
        // analyze-suppress(raw-kernel-send): see activate_storm.
        kernel_.notify(ep_, victim, FI_FLOOD);
      }
      schedule_flood_pump(victim, burst);
    });
  }

  kernel::Kernel& kernel_;
  kernel::Endpoint ep_;
  std::string name_;
  const seep::Classification& classification_;
  ckpt::Context ctx_;
  std::byte* aux_base_ = nullptr;  // see set_aux_region()
  std::size_t aux_len_ = 0;
  std::unique_ptr<ckpt::PageStore> pages_;
  seep::Window window_;
  std::uint64_t deferred_replies_ = 0;
  bool flood_pump_active_ = false;
  std::array<HandlerSlot, kMsgSpecCount> handlers_{};
};

/// Typed layer binding a concrete State struct as the data section.
template <typename StateT>
class ServerBase : public ServerCommon {
  static_assert(std::is_trivially_copyable_v<StateT>,
                "a server's data section must be trivially copyable for clone transfer");

 public:
  using ServerCommon::ServerCommon;

  std::byte* data_section() final { return reinterpret_cast<std::byte*>(&state_); }
  [[nodiscard]] std::size_t data_section_size() const final { return sizeof(StateT); }

 protected:
  StateT& st() noexcept { return state_; }
  [[nodiscard]] const StateT& st() const noexcept { return state_; }

 private:
  StateT state_{};
};

}  // namespace osiris::servers
