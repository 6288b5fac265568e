// Fig. 1 — impact of constant core/uncore frequencies on network
// performance (henri, userspace governor, no computation).
//
// 1a: latency vs message size for the extreme core and uncore settings.
// 1b: bandwidth vs message size for the same grid.
#include "bench/registry.hpp"
#include "hw/frequency_governor.hpp"
#include "mpi/pingpong.hpp"

namespace cci::bench {
namespace {

struct Setting {
  const char* label;
  double core_hz;
  double uncore_hz;
};

trace::Stats run_point(const Setting& s, std::size_t bytes) {
  net::Cluster cluster(net::ClusterSpec{});
  for (int n = 0; n < 2; ++n) {
    cluster.machine(n).governor().pin_core_freq(s.core_hz);
    cluster.machine(n).governor().pin_uncore_freq(s.uncore_hz);
  }
  // Fig. 1 runs the plain MPI benchmark; comm thread far from the NIC.
  mpi::World world(cluster, {{0, 35}, {1, 35}});
  mpi::PingPongOptions opt;
  opt.bytes = bytes;
  opt.iterations = bytes >= (1u << 20) ? 6 : 30;
  opt.warmup = 2;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  return trace::Stats::of(pp.latencies());
}

int run(FigureContext& ctx) {
  const Setting settings[] = {
      {"core 2300 MHz / uncore 2400 MHz", 2.3e9, 2.4e9},
      {"core 2300 MHz / uncore 1200 MHz", 2.3e9, 1.2e9},
      {"core 1000 MHz / uncore 2400 MHz", 1.0e9, 2.4e9},
      {"core 1000 MHz / uncore 1200 MHz", 1.0e9, 1.2e9},
  };

  ctx.out() << "--- Fig. 1a: latency (us) vs message size ---\n";
  trace::Table lat({"bytes", "c2300/u2400", "c2300/u1200", "c1000/u2400", "c1000/u1200"});
  for (std::size_t bytes : {4u, 64u, 1024u, 16384u}) {
    std::vector<double> row{static_cast<double>(bytes)};
    for (const auto& s : settings) row.push_back(sim::to_usec(run_point(s, bytes).median));
    lat.add_row(row);
  }
  ctx.print(lat, "fig01a_latency");

  ctx.out() << "\nPaper reference points (4 B): 1.8 us at 2300 MHz vs 3.1 us at 1000 MHz\n";
  ctx.out() << "(+72% core effect; uncore effect ~+5%)\n\n";

  ctx.out() << "--- Fig. 1b: bandwidth (GB/s) vs message size ---\n";
  trace::Table bw({"bytes", "c2300/u2400", "c2300/u1200", "c1000/u2400", "c1000/u1200"});
  for (std::size_t bytes : {64u * 1024u, 1u << 20, 16u << 20, 64u << 20}) {
    std::vector<double> row{static_cast<double>(bytes)};
    for (const auto& s : settings) {
      auto st = run_point(s, bytes);
      row.push_back(static_cast<double>(bytes) / st.median / 1e9);
    }
    bw.add_row(row);
  }
  ctx.print(bw, "fig01b_bandwidth");
  ctx.out() << "\nPaper reference (64 MB): 10.5 GB/s at uncore 2400 MHz vs 10.1 GB/s at 1200 MHz\n";
  return 0;
}

const FigureRegistrar reg("fig01", "Fig. 1",
                          "constant core/uncore frequencies vs network performance", run,
                          "fig01_frequency_pingpong");

}  // namespace
}  // namespace cci::bench
