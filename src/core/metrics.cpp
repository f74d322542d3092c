#include "core/metrics.hpp"

#include "support/table_printer.hpp"

namespace osiris::core {

SystemMetrics collect_metrics(os::OsInstance& inst) {
  SystemMetrics m;
  std::uint64_t total_hits = 0;
  double weighted = 0.0;
  for (recovery::Recoverable* comp : inst.components()) {
    ComponentMetrics cm;
    cm.name = std::string(comp->name());
    cm.window = comp->window().stats();
    cm.log = comp->ckpt_context().log().stats();
    if (const servers::FomStats* fs = comp->fom_stats()) cm.fom = *fs;
    cm.state_bytes = comp->data_section_size();
    cm.clone_bytes = inst.engine().clone_bytes(comp->endpoint());
    cm.aux_bytes = comp->aux_section_size();
    if (const ckpt::PageStore* ps = comp->page_store()) {
      cm.max_page_snapshot_bytes = ps->stats().max_resident_bytes;
    }
    cm.recoveries = inst.engine().recoveries_of(comp->endpoint());
#if OSIRIS_TRACE_ENABLED
    if (const trace::Tracer* tracer = inst.tracer()) {
      if (const trace::EventRing* ring = tracer->ring(comp->endpoint().value)) {
        cm.trace_events = ring->size();
        cm.trace_dropped = ring->dropped();
        cm.trace_high_water = ring->high_water();
      }
    }
#endif
    const std::uint64_t hits = cm.window.probe_hits_inside + cm.window.probe_hits_outside;
    total_hits += hits;
    weighted += cm.window.coverage() * static_cast<double>(hits);
    m.components.push_back(std::move(cm));
  }
  m.weighted_coverage = total_hits > 0 ? weighted / static_cast<double>(total_hits) : 0.0;
  m.kernel = inst.kern().stats();
  m.engine = inst.engine().stats();
  m.classification_defaults = inst.classification().default_lookups();

#if OSIRIS_TRACE_ENABLED
  if (const trace::Tracer* tracer = inst.tracer()) {
    m.trace_active = true;
    m.trace_emitted = tracer->events_emitted();
    m.trace_dropped = tracer->total_dropped();
  }
#endif
  return m;
}

SystemMetrics measure_coverage(seep::Policy policy, workload::SuiteResult* suite) {
  os::OsConfig cfg;
  cfg.policy = policy;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const workload::SuiteResult result = workload::run_suite(inst);
  if (suite != nullptr) *suite = result;
  return collect_metrics(inst);
}

std::string SystemMetrics::report() const {
  std::vector<std::string> headers = {"Component", "Coverage", "Windows", "Closed(SEEP/yield)",
                                      "State B", "Clone B", "MaxLog B", "Recoveries"};
  if (trace_active) {
    headers.push_back("TraceHW");
    headers.push_back("TraceDrop");
  }
  TablePrinter t(headers);
  for (const ComponentMetrics& c : components) {
    std::vector<std::string> row = {
        c.name, TablePrinter::pct(c.window.coverage()), std::to_string(c.window.opened),
        std::to_string(c.window.closed_by_seep) + "/" + std::to_string(c.window.closed_by_yield),
        std::to_string(c.state_bytes), std::to_string(c.clone_bytes),
        std::to_string(c.log.max_log_bytes), std::to_string(c.recoveries)};
    if (trace_active) {
      row.push_back(std::to_string(c.trace_high_water));
      row.push_back(std::to_string(c.trace_dropped));
    }
    t.add_row(std::move(row));
  }
  const kernel::KernelStats& k = kernel;
  const recovery::EngineStats& e = engine;
  std::string out = t.str();
  out += "weighted coverage: " + TablePrinter::pct(weighted_coverage) + "\n";
  out += "kernel: " + std::to_string(k.messages_queued) + " messages, " +
         std::to_string(k.nested_calls) + " nested calls, " + std::to_string(k.crashes) +
         " crashes, " + std::to_string(k.hangs) + " hangs\n";
  out += "fastpath: queue high-water " + std::to_string(k.queue_high_water) + ", " +
         std::to_string(k.safecopy_bytes) + " B safecopied, " +
         std::to_string(k.grant_bypass_bytes) + " B zero-copy over " +
         std::to_string(k.grant_spans) + " spans\n";
  out += "engine: " + std::to_string(e.restarts) + " restarts, " + std::to_string(e.rollbacks) +
         " rollbacks, " + std::to_string(e.error_replies) + " error replies, " +
         std::to_string(e.shutdowns) + " shutdowns\n";
  out += "classification: " + std::to_string(classification_defaults) +
         " default-trait lookups\n";
  for (const ComponentMetrics& c : components) {
    if (c.fom.admitted == 0) continue;
    out += "fom[" + c.name + "]: " + std::to_string(c.fom.admitted) + " admitted, " +
           std::to_string(c.fom.parks) + " parks, " + std::to_string(c.fom.resumes) +
           " resumes, " + std::to_string(c.fom.aborts) + " aborts, " +
           std::to_string(c.fom.sync_fallbacks) + " sync fallbacks, high-water " +
           std::to_string(c.fom.in_flight_high_water) + ", " +
           std::to_string(c.fom.wait_ticks_total) + " wait ticks";
    if (e.fom_reconciles > 0) out += ", " + std::to_string(e.fom_reconciles) + " reconciles";
    out += "\n";
  }
  for (const ComponentMetrics& c : components) {
    // Printed only for page-tier components so the default (flag-off) report
    // stays byte-identical, like the fom[] and health lines.
    if (c.aux_bytes == 0 && c.log.page_records == 0) continue;
    out += "pages[" + c.name + "]: " + std::to_string(c.aux_bytes) + " B aux, " +
           std::to_string(c.log.page_records) + " page records (" +
           std::to_string(c.log.page_bytes_logged) + " B), " +
           std::to_string(c.log.page_compactions) + " compactions (" +
           std::to_string(c.log.compacted_bytes) + " B), restart delta " +
           std::to_string(c.log.delta_restart_bytes) + " B vs full " +
           std::to_string(c.log.full_copy_bytes) + " B\n";
  }
  if (k.fever_onsets > 0 || k.health_charges > 0 || e.storm_throttles > 0 ||
      k.dispatch_aborts > 0) {
    out += "health: " + std::to_string(k.health_charges) + " charges, " +
           std::to_string(k.fever_onsets) + " fever onsets, " +
           std::to_string(k.throttled_drops) + " throttled drops, " +
           std::to_string(k.starved_quanta) + " starved quanta, " +
           std::to_string(e.storm_throttles) + " throttles, " +
           std::to_string(e.storm_quarantines) + " storm quarantines";
    if (e.storm_detected) {
      out += ", detection latency " + std::to_string(e.detection_latency_ticks) + " ticks";
    }
    if (k.dispatch_aborts > 0) out += ", " + std::to_string(k.dispatch_aborts) + " dispatch aborts";
    out += "\n";
  }
  if (trace_active) {
    out += "trace: " + std::to_string(trace_emitted) + " events emitted, " +
           std::to_string(trace_dropped) + " dropped\n";
  }
  return out;
}

}  // namespace osiris::core
