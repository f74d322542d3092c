// The Tracer: one deterministic event recorder per simulated machine.
//
// A Tracer owns a fixed-capacity EventRing per component, a runtime enable
// bit, and the machine-wide monotonic sequence counter. Emission goes
// through a thread-local active pointer (the same pattern as
// ckpt::Context::active_ and the per-thread fi::Registry): an OsInstance
// installs its tracer on construction and restores the previous one on
// destruction, so every campaign worker records into its own tracer and a
// run's trace is byte-identical no matter how many workers share the
// process. Nothing in the emit path allocates once a component's ring
// reached capacity, and with no tracer installed (or tracing disabled) a
// probe is one thread-local load and a branch.
//
// Instrumented code must not include this header directly — it goes through
// the OSIRIS_TRACE_EVENT macro layer in trace/trace.hpp, which compiles to
// nothing when the build is configured with -DOSIRIS_TRACE=OFF.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/clock.hpp"
#include "trace/event.hpp"
#include "trace/ring.hpp"

namespace osiris::trace {

/// Default per-component ring size. Deliberately modest: the busiest ring
/// (the kernel's) is written cyclically on every IPC event, and at 1024
/// records (~48 KiB) it stays cache-resident — quadrupling it measurably
/// slows fork/exec-heavy workloads through pure cache pressure. Analyses
/// that need full retention pass an explicit capacity instead.
inline constexpr std::size_t kDefaultRingCapacity = 1024;

class Tracer {
 public:
  explicit Tracer(const VirtualClock& clock, std::size_t capacity = kDefaultRingCapacity)
      : clock_(clock), ring_capacity_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- runtime enable bit ------------------------------------------------
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  // --- emission ----------------------------------------------------------
  /// Record one event, stamped with the virtual clock and the next sequence
  /// number. Events with a negative component id (unattributed standalone
  /// harness objects) are ignored.
  void emit(EventKind kind, std::int32_t comp, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
            std::uint64_t a2 = 0) {
    if (!enabled_ || comp < 0) return;
    ring_for(comp).push(Event{seq_++, clock_.now(), comp, kind, a0, a1, a2});
  }

  // --- per-component rings ----------------------------------------------
  /// The ring of `comp`, or nullptr if it never emitted.
  [[nodiscard]] const EventRing* ring(std::int32_t comp) const {
    const auto i = static_cast<std::size_t>(comp);
    return comp >= 0 && i < rings_.size() ? rings_[i].get() : nullptr;
  }

  /// Visit every existing ring in component-id order (deterministic).
  template <typename Fn>
  void for_each_ring(Fn&& fn) const {
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      if (rings_[i]) fn(static_cast<std::int32_t>(i), *rings_[i]);
    }
  }

  [[nodiscard]] std::uint64_t events_emitted() const noexcept { return seq_; }
  std::uint64_t total_dropped() const;

  // --- full-system merge -------------------------------------------------
  /// All retained records across every ring, sorted by sequence number:
  /// the totally ordered machine timeline.
  std::vector<Event> merged() const;

  // --- component labels (for exporters) ----------------------------------
  void set_component_name(std::int32_t comp, std::string name);
  /// "kernel", "pm", ... or "ep<N>" for unnamed components.
  [[nodiscard]] std::string comp_label(std::int32_t comp) const;

  // --- thread-local active tracer ---------------------------------------
  [[nodiscard]] static Tracer* active() noexcept { return active_; }
  static Tracer* exchange_active(Tracer* next) noexcept {
    Tracer* prev = active_;
    active_ = next;
    return prev;
  }

 private:
  /// Direct-indexed cache of ring pointers for the low component ids (which
  /// is all of them, in practice): the common emit resolves its ring with
  /// one load instead of two bounds checks and a unique_ptr chase.
  static constexpr std::size_t kFastComps = 64;

  EventRing& ring_for(std::int32_t comp) {
    const auto i = static_cast<std::size_t>(comp);
    if (i < kFastComps && fast_[i] != nullptr) return *fast_[i];
    return ring_for_slow(i);
  }
  EventRing& ring_for_slow(std::size_t i);

  const VirtualClock& clock_;
  std::size_t ring_capacity_;
  bool enabled_ = true;
  std::uint64_t seq_ = 0;
  EventRing* fast_[kFastComps] = {};
  std::vector<std::unique_ptr<EventRing>> rings_;  // indexed by component id
  std::vector<std::string> names_;                 // indexed by component id

  inline static thread_local Tracer* active_ = nullptr;
};

/// Emission entry point used by the OSIRIS_TRACE_EVENT macro: record into
/// the calling thread's active tracer, if any.
inline void emit_active(EventKind kind, std::int32_t comp, std::uint64_t a0 = 0,
                        std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
  if (Tracer* t = Tracer::active()) t->emit(kind, comp, a0, a1, a2);
}

}  // namespace osiris::trace
