// Regenerates Table IV: "Baseline performance compared to Linux (median
// unixbench scores, higher is better, std.dev. in parentheses)".
//
// The "Linux" column is the monolithic direct-call kernel (os::MonoOs): the
// identical workload code and the identical MiniFS run without message
// passing, isolation or instrumentation. The "OSIRIS" column is the
// uninstrumented multiserver baseline (no checkpointing, no recovery).
// Scores are iterations/second; absolute values are host-dependent, but the
// slowdown column reproduces the paper's shape: the monolithic system wins
// everywhere except pure-compute rows, with the largest factors on
// context-switch-heavy workloads (spawn, shell8, pipe).
//
// Environment: OSIRIS_RUNS (default 11), OSIRIS_ITER_SCALE (default 1.0).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "support/stats.hpp"
#include "support/table_printer.hpp"
#include "workload/unixbench.hpp"

using namespace osiris;
using namespace osiris::workload;

int main() {
  const int runs = std::getenv("OSIRIS_RUNS") ? std::atoi(std::getenv("OSIRIS_RUNS")) : 11;
  const double scale =
      std::getenv("OSIRIS_ITER_SCALE") ? std::atof(std::getenv("OSIRIS_ITER_SCALE")) : 1.0;

  std::printf("Table IV — monolithic (\"Linux\") vs OSIRIS baseline, median of %d runs\n\n",
              runs);

  os::OsConfig baseline;
  baseline.recovery_enabled = false;
  baseline.heartbeat_interval = 0;
  baseline.ckpt_mode = ckpt::Mode::kOff;

  TablePrinter table({"Benchmark", "Mono score", "(sd)", "OSIRIS score", "(sd)", "Slowdown (x)"});
  std::vector<double> slowdowns;
  for (const UbWorkload& w : ub_workloads()) {
    const auto iters = static_cast<std::uint64_t>(static_cast<double>(w.default_iters) * scale);
    (void)run_ub_mono(w, iters);  // warm-up
    (void)run_ub_microkernel(baseline, w, iters);
    std::vector<double> mono_scores, micro_scores;
    for (int r = 0; r < runs; ++r) {
      mono_scores.push_back(ub_score(iters, run_ub_mono(w, iters)));
      micro_scores.push_back(ub_score(iters, run_ub_microkernel(baseline, w, iters)));
    }
    const double mono_med = stats::median(mono_scores);
    const double micro_med = stats::median(micro_scores);
    const double slowdown = micro_med > 0 ? mono_med / micro_med : 0.0;
    slowdowns.push_back(slowdown);
    table.add_row({w.name, TablePrinter::fmt(mono_med, 1),
                   std::string("(").append(TablePrinter::fmt(stats::stddev(mono_scores), 1)) + ")",
                   TablePrinter::fmt(micro_med, 1),
                   std::string("(").append(TablePrinter::fmt(stats::stddev(micro_scores), 1)) + ")",
                   TablePrinter::fmt(slowdown, 2)});
    std::fflush(stdout);
  }
  table.add_separator();
  table.add_row({"geomean", "", "", "", "", TablePrinter::fmt(stats::geomean(slowdowns), 2)});
  table.print();
  std::printf(
      "\npaper: geomean slowdown 4.20x vs Linux; worst rows are the\n"
      "context-switch-heavy ones (spawn 33.0x, shell8 35.0x, pipe 17.5x),\n"
      "compute rows are closest to parity. Our compute rows are ~1.0x by\n"
      "construction (both systems execute the same native code).\n");
  return 0;
}
