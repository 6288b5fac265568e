// Ablation: LLC working-set residency — the missing axis of Fig. 10.
//
// The paper's CG streams a huge dense matrix (always DRAM-bound).  Sweeping
// the problem size through the LLC boundary shows interference switching
// off once the working set becomes cache-resident — the cache-aware
// refinement of §4.5's arithmetic-intensity law.
#include "bench/registry.hpp"
#include "core/interference_lab.hpp"
#include "kernels/cg.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  trace::Table t({"matrix_n", "working_set_MB", "dram_fraction", "net_bw_together_GBps",
                  "net_bw_ratio"});
  for (std::size_t n : {512u, 1024u, 1448u, 2048u, 4096u, 8192u, 16384u}) {
    core::Scenario s;
    s.kernel = kernels::cg_gemv_traits_for(n);
    s.computing_cores = 20;
    s.message_bytes = 64 << 20;
    s.pingpong_iterations = 4;
    s.pingpong_warmup = 1;
    s.compute_repetitions = 5;
    s.target_pass_seconds = 0.04;
    auto r = core::InterferenceLab(s).run();
    double ws_mb = s.kernel.working_set_bytes / 1e6;
    double ratio = r.comm_together.bandwidth.median / r.comm_alone.bandwidth.median;
    t.add_row({static_cast<double>(n), ws_mb,
               s.kernel.dram_fraction(s.machine.llc_bytes_per_socket),
               r.comm_together.bandwidth.median / 1e9, ratio});
  }
  ctx.print(t, "ablation_cache_residency");
  ctx.out() << "\nBelow the 25 MB LLC (n <= ~1800) the GEMV never touches DRAM and the\n"
               "network keeps its full bandwidth; past it, interference ramps toward\n"
               "the streaming regime of Fig. 4/10.\n";
  return 0;
}

const FigureRegistrar reg("ablation_cache_residency", "Ablation",
                          "working-set residency vs network interference (CG-like kernel)",
                          run);

}  // namespace
}  // namespace cci::bench
