// Fig. 10 — network sending bandwidth and memory-stall fraction of
// task-based CG and GEMM on two henri nodes, sweeping the worker count.
#include <algorithm>

#include "bench/registry.hpp"
#include "runtime/apps.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  auto machine = hw::MachineConfig::henri();
  auto np = net::NetworkParams::ib_edr();
  auto rt_cfg = runtime::RuntimeConfig::for_machine("henri");

  std::vector<int> workers{1, 2, 4, 8, 12, 16, 20, 24, 28, 34};

  std::vector<double> cg_bw, cg_stall, gemm_bw, gemm_stall;
  for (int w : workers) {
    runtime::CgAppOptions cg;
    cg.n = 32768;
    cg.iterations = 3;
    cg.workers = w;
    auto rc = runtime::run_cg_app(machine, np, rt_cfg, cg);
    cg_bw.push_back(rc.sending_bw);
    cg_stall.push_back(rc.stall_fraction);

    runtime::GemmAppOptions gm;
    gm.m = 4096;
    gm.tile = 512;
    gm.workers = w;
    auto rg = runtime::run_gemm_app(machine, np, rt_cfg, gm);
    gemm_bw.push_back(rg.sending_bw);
    gemm_stall.push_back(rg.stall_fraction);

    ctx.obs().write_record({{"workers", static_cast<double>(w)},
                            {"cg_send_Bps", rc.sending_bw},
                            {"cg_stall_fraction", rc.stall_fraction},
                            {"gemm_send_Bps", rg.sending_bw},
                            {"gemm_stall_fraction", rg.stall_fraction}});
  }

  double cg_max = *std::max_element(cg_bw.begin(), cg_bw.end());
  double gemm_max = *std::max_element(gemm_bw.begin(), gemm_bw.end());

  trace::Table t({"workers", "CG_norm_send_bw", "CG_stall_pct", "GEMM_norm_send_bw",
                  "GEMM_stall_pct"});
  for (std::size_t i = 0; i < workers.size(); ++i) {
    t.add_row({static_cast<double>(workers[i]), cg_bw[i] / cg_max, 100.0 * cg_stall[i],
               gemm_bw[i] / gemm_max, 100.0 * gemm_stall[i]});
  }
  ctx.print(t, "fig10_cg_gemm");

  double cg_loss = 100.0 * (1.0 - cg_bw.back() / cg_max);
  double gemm_loss = 100.0 * (1.0 - gemm_bw.back() / gemm_max);
  ctx.out() << "\nMeasured at full machine: CG loses " << static_cast<int>(cg_loss)
            << "% of sending bandwidth, GEMM " << static_cast<int>(gemm_loss) << "%\n";
  ctx.out() << "Paper: CG loses up to 90% (70% of stalls from memory), GEMM at most\n"
               "20% (20% stalls) — CG is the memory-bound kernel, GEMM the dense one.\n";
  return 0;
}

const FigureRegistrar reg("fig10", "Fig. 10",
                          "CG and GEMM: sending bandwidth vs memory stalls, 2 nodes", run,
                          "fig10_cg_gemm");

}  // namespace
}  // namespace cci::bench
