// Survivability under *persistent* (recurring) faults — the escalation
// ladder's stress test.
//
// Unlike Table II's one-shot faults, each injection here models a
// deterministic bug: the fault re-fires after every recovery, so flat
// restart policies crash-loop. The escalation ladder (transient retry ->
// stateless restart with backoff -> quarantine) is what turns those loops
// into degraded-but-alive outcomes. Buckets per run:
//   Recovered — suite finished clean, no quarantine needed;
//   Degraded  — machine survived the suite, but a component ended up
//               quarantined (or residual suite failures remain);
//   Shutdown  — consistent controlled shutdown;
//   Wedged    — crash or hang: the bucket the ladder exists to empty.
//
// Environment:
//   OSIRIS_SAMPLE           keep only every Nth injection (default 1 = all)
//   OSIRIS_JOBS / --jobs=N  worker threads (default 1; 0 = all cores)
#include <cstdio>

#include "campaign_cli.hpp"
#include "support/table_printer.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);

  const std::vector<Injection> plan =
      bench::every_nth(plan_recurring(), bench::sample_stride());
  std::printf("Recurring-fault survivability (persistent bugs, escalation ladder)\n");
  std::printf("(%zu injections per policy; the same plan applied to every policy)\n\n",
              plan.size());
  std::fprintf(stderr, "[table_recurring] %u worker(s)\n", campaign_jobs(opts.jobs));

  TablePrinter table({"Recovery mode", "Recovered", "Degraded", "Shutdown", "Wedged"});
  for (auto policy : {seep::Policy::kStateless, seep::Policy::kNaive,
                      seep::Policy::kPessimistic, seep::Policy::kEnhanced}) {
    const RecurringTotals t = run_recurring_campaign(policy, plan, opts);
    table.add_row({seep::policy_name(policy), TablePrinter::pct(t.frac(t.recovered)),
                   TablePrinter::pct(t.frac(t.degraded)),
                   TablePrinter::pct(t.frac(t.shutdown)),
                   TablePrinter::pct(t.frac(t.wedged))});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nshape: every policy should have a near-empty Wedged column — the\n"
      "ladder quarantines crash-looping components instead of letting them\n"
      "wedge the machine; windowed policies shut down consistently more\n"
      "often, stateless survives degraded more often\n");
  return 0;
}
