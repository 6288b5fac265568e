// Extension: full NetPIPE curves per machine (the measurement instrument
// behind every latency/bandwidth number in the paper).
#include "bench/registry.hpp"
#include "mpi/netpipe.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  for (const auto& machine : hw::MachineConfig::all_presets()) {
    net::Cluster cluster(
        {.machine = machine, .network = net::NetworkParams::for_machine(machine.name)});
    mpi::World world(cluster, {{0, -1}, {1, -1}});
    mpi::NetpipeOptions opt;
    opt.perturbation = 0;
    opt.iterations = 8;
    auto curve = run_netpipe(world, opt);

    ctx.out() << "--- " << machine.name << " ("
              << net::NetworkParams::for_machine(machine.name).fabric << ") ---\n";
    trace::Table t({"bytes", "latency_us", "bandwidth_GBps"});
    for (const auto& p : curve.points)
      t.add_row({static_cast<double>(p.bytes), p.latency.median * 1e6, p.bandwidth / 1e9});
    ctx.print(t, "netpipe_" + machine.name);
    ctx.out() << "peak " << trace::format_bw(curve.peak_bandwidth()) << " at "
              << trace::format_bytes(static_cast<double>(curve.best_size())) << ", n1/2 = "
              << trace::format_bytes(static_cast<double>(curve.half_peak_size()))
              << ", cliffs: " << curve.latency_cliffs().size() << "\n\n";
  }
  return 0;
}

const FigureRegistrar reg("netpipe_curves", "NetPIPE",
                          "latency/bandwidth curves per machine (quiet)", run);

}  // namespace
}  // namespace cci::bench
