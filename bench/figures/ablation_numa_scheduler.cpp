// Ablation: the paper's future-work NUMA-aware task scheduler vs the
// default FIFO, on the distributed CG application.
#include "bench/registry.hpp"
#include "runtime/apps.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  auto machine = hw::MachineConfig::henri();
  auto np = net::NetworkParams::ib_edr();

  trace::Table t({"scheduler", "workers", "makespan_ms", "send_bw_GBps", "stall_pct"});
  for (int workers : {8, 16, 34}) {
    for (bool numa : {false, true}) {
      auto cfg = runtime::RuntimeConfig::for_machine("henri");
      cfg.numa_aware_scheduling = numa;
      runtime::CgAppOptions opt;
      opt.n = 32768;
      opt.iterations = 3;
      opt.workers = workers;
      auto r = runtime::run_cg_app(machine, np, cfg, opt);
      t.add_text_row({numa ? "numa-aware" : "fifo", std::to_string(workers),
                      trace::fmt(r.makespan * 1e3, 3),
                      trace::fmt(r.sending_bw / 1e9, 2),
                      trace::fmt(100.0 * r.stall_fraction, 1)});
    }
  }
  ctx.print(t, "ablation_numa_scheduler");
  ctx.out() << "\nThe NUMA-aware scheduler keeps GEMV chunks on cores local to their\n"
               "rows, removing cross-socket traffic; the paper's conclusion proposes\n"
               "exactly this as a mitigation for the measured interference.\n";
  return 0;
}

const FigureRegistrar reg("ablation_numa_scheduler", "Ablation",
                          "NUMA-aware task scheduling vs FIFO (distributed CG)", run);

}  // namespace
}  // namespace cci::bench
