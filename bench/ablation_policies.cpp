// Ablation (ours, motivated by the paper's SVII "composable recovery
// policies"): how the recovery-window policy axis trades recoverable
// surface for reconciliation aggressiveness. Reports per-server coverage
// under pessimistic / enhanced / extended, plus a small fail-stop
// survivability comparison between enhanced and extended.
//
// Environment: OSIRIS_SAMPLE thins the survivability plan (default 3);
// OSIRIS_JOBS / --jobs=N shards the campaign (default 1; 0 = all cores).
#include <cstdio>

#include "campaign_cli.hpp"
#include "core/metrics.hpp"
#include "support/table_printer.hpp"
#include "support/worker_pool.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);
  std::printf("Ablation — recovery-window policy axis\n\n");

  // The three coverage suites are independent simulators: shard them too.
  const seep::Policy cov_policies[] = {seep::Policy::kPessimistic, seep::Policy::kEnhanced,
                                       seep::Policy::kExtended};
  core::SystemMetrics cov[3];
  support::WorkerPool::run_indexed(3, opts.jobs, [&](std::size_t i) {
    cov[i] = core::measure_coverage(cov_policies[i]);
  });

  TablePrinter table({"Server", "Pessimistic", "Enhanced", "Extended (SVII)"});
  for (std::size_t i = 0; i < cov[0].components.size(); ++i) {
    table.add_row({cov[0].components[i].name,
                   TablePrinter::pct(cov[0].components[i].window.coverage()),
                   TablePrinter::pct(cov[1].components[i].window.coverage()),
                   TablePrinter::pct(cov[2].components[i].window.coverage())});
  }
  table.add_separator();
  table.add_row({"weighted mean", TablePrinter::pct(cov[0].weighted_coverage),
                 TablePrinter::pct(cov[1].weighted_coverage),
                 TablePrinter::pct(cov[2].weighted_coverage)});
  table.print();

  const std::vector<Injection> plan =
      bench::every_nth(plan_failstop(3), bench::sample_stride(/*def=*/3));
  std::printf("\nfail-stop survivability on a thinned plan (%zu injections):\n\n", plan.size());
  TablePrinter surv({"Policy", "Pass", "Fail", "Shutdown", "Crash"});
  for (auto policy : {seep::Policy::kEnhanced, seep::Policy::kExtended}) {
    const CampaignTotals t = run_campaign(policy, plan, opts);
    surv.add_row({seep::policy_name(policy), TablePrinter::pct(t.frac(t.pass)),
                  TablePrinter::pct(t.frac(t.fail)), TablePrinter::pct(t.frac(t.shutdown)),
                  TablePrinter::pct(t.frac(t.crash))});
  }
  surv.print();
  std::printf("\nreading: the extended policy widens the recovery surface (fewer\n"
              "shutdowns) at the price of a harsher reconciliation — the requester\n"
              "is killed when a tainted window is recovered.\n");
  return 0;
}
