// Extension: fitted LogGP parameters per machine (the model vocabulary the
// paper uses in §3.1 to explain its frequency results).
#include "bench/registry.hpp"
#include "mpi/loggp.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  trace::Table t({"machine", "L_us", "o_us", "G_ns_per_KB", "asym_GBps"});
  for (const auto& machine : hw::MachineConfig::all_presets()) {
    net::Cluster cluster(
        {.machine = machine, .network = net::NetworkParams::for_machine(machine.name)});
    auto p = mpi::fit_loggp_two_frequencies(cluster, machine.core_freq_min_hz,
                                            machine.core_freq_nominal_hz);
    t.add_text_row({machine.name,
                    trace::fmt(p.latency * 1e6, 2),
                    trace::fmt(p.overhead * 1e6, 2),
                    trace::fmt(p.gap_per_byte * 1e9 * 1024, 2),
                    trace::fmt(1.0 / p.gap_per_byte / 1e9, 2)});
  }
  ctx.print(t, "loggp_params");
  ctx.out() << "\no is the frequency-scaled software overhead the paper's §3 isolates:\n"
               "halving the comm-core frequency doubles o while L and G are untouched.\n";
  return 0;
}

const FigureRegistrar reg("loggp_params", "LogGP",
                          "fitted parameters per machine (two-frequency separation)", run);

}  // namespace
}  // namespace cci::bench
