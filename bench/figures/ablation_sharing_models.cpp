// Ablation: discrete-event simulator vs static analytical baselines
// (weighted max-min snapshot; proportional sharing a la Langguth [12])
// on the Fig. 4b sweep.  Quantifies what the dynamics add.
#include "bench/registry.hpp"
#include "core/interference_lab.hpp"
#include "kernels/stream.hpp"
#include "model/analytic.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  trace::Table t({"cores", "sim_GBps", "static_maxmin_GBps", "proportional_GBps",
                  "sim_stream_GBps", "maxmin_stream_GBps"});
  for (int cores : core::paper_core_counts(35)) {
    model::ContentionInputs in;
    in.computing_cores = cores;
    auto mm = model::predict_max_min(in);
    auto pr = model::predict_proportional(in);

    core::Scenario s;
    s.kernel = kernels::triad_traits();
    s.computing_cores = cores;
    s.message_bytes = 64 << 20;
    s.pingpong_iterations = 4;
    s.pingpong_warmup = 1;
    core::InterferenceLab lab(s);
    core::ComputePhase compute;
    core::CommPhase comm;
    lab.run_compute_alone();
    lab.run_together(compute, comm);

    t.add_row({static_cast<double>(cores), comm.bandwidth.median / 1e9, mm.network_bw / 1e9,
               pr.network_bw / 1e9, compute.per_core_bandwidth.median / 1e9,
               mm.per_core_bw / 1e9});
  }
  ctx.print(t, "ablation_sharing_models");
  ctx.out() << "\nReading: the static max-min snapshot tracks the simulator's steady\n"
               "state; the proportional model (no flow protection) over-punishes the\n"
               "NIC.  The DES adds protocol dynamics (handshakes, uncore, latency\n"
               "inflation) that static models cannot express.\n";
  return 0;
}

const FigureRegistrar reg("ablation_sharing_models", "Ablation",
                          "DES simulator vs static sharing models (Fig. 4b sweep)", run);

}  // namespace
}  // namespace cci::bench
