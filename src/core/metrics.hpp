// System-wide metrics snapshot: one structure aggregating everything the
// paper's evaluation measures, collected from a live (or finished) machine.
//
// Each counter is defined once, in its subsystem's stats struct; the snapshot
// holds those structs by value and adds only what has no stats struct of its
// own (sizes, per-component recovery counts, trace-ring health).
#pragma once

#include <string>
#include <vector>

#include "ckpt/undo_log.hpp"
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "recovery/engine.hpp"
#include "seep/policy.hpp"
#include "seep/window.hpp"
#include "servers/fom.hpp"
#include "workload/suite.hpp"

namespace osiris::core {

struct ComponentMetrics {
  std::string name;
  seep::WindowStats window;  // window.coverage() is the Table I quantity
  ckpt::UndoLogStats log;    // log.max_log_bytes is Table VI "+undo log"
  servers::FomStats fom;     // zero unless the component runs the FOM executor
  std::size_t state_bytes = 0;  // Table VI "base"
  std::size_t clone_bytes = 0;  // Table VI "+clone"
  std::size_t aux_bytes = 0;    // heap-backed recoverable region (DESIGN.md §17)
  std::size_t max_page_snapshot_bytes = 0;  // Table VI.b "+page snaps (max)"
  std::uint32_t recoveries = 0;

  // Event tracing (zero unless the run had cfg.trace_enabled on an
  // OSIRIS_TRACE=ON build): flight-recorder health per component.
  std::uint64_t trace_events = 0;        // events currently retained in the ring
  std::uint64_t trace_dropped = 0;       // events overwritten after the ring filled
  std::uint64_t trace_high_water = 0;    // max events simultaneously retained
};

struct SystemMetrics {
  std::vector<ComponentMetrics> components;
  kernel::KernelStats kernel;
  recovery::EngineStats engine;
  double weighted_coverage = 0.0;  // per-component coverage weighted by probe hits

  // SEEP classification health: how many lookups fell back to the
  // conservative default because the type was absent from the spec table.
  // Nonzero means a channel carried an undeclared type (dispatch fail-stops
  // on these at the receiver, but outbound wrappers consult the table too).
  std::uint64_t classification_defaults = 0;

  // event tracing (machine-wide; see ComponentMetrics for the per-ring view)
  bool trace_active = false;          // a tracer was attached to the run
  std::uint64_t trace_emitted = 0;    // total events emitted (incl. overwritten)
  std::uint64_t trace_dropped = 0;    // total events lost to full rings

  /// Render a human-readable report.
  [[nodiscard]] std::string report() const;
};

/// Snapshot all metrics from a machine (typically after run()).
SystemMetrics collect_metrics(os::OsInstance& inst);

/// Table I: boot a machine under `policy`, run the prototype test suite as
/// init and snapshot it. `suite`, when given, receives the suite's verdict.
SystemMetrics measure_coverage(seep::Policy policy, workload::SuiteResult* suite = nullptr);

}  // namespace osiris::core
