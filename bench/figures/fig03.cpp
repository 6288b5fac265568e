// Fig. 3 — impact of AVX512 computations on frequencies and latency
// (henri, turbo-boost enabled, weak scaling: same work per core).
#include <memory>

#include "bench/registry.hpp"
#include "core/compute_team.hpp"
#include "kernels/vecflops.hpp"
#include "mpi/pingpong.hpp"
#include "trace/freq_trace.hpp"

namespace cci::bench {
namespace {

struct Point {
  double compute_ms;
  double freq_ghz;        // computing-core frequency during the run
  double comm_freq_ghz;   // communication-core frequency
  double lat_alone_us;
  double lat_together_us;
};

/// One weak-scaling point; with a non-null `trace_out` it also prints the
/// frequency trace of the run there.
Point run_point(int cores, FigureContext* trace_out, double trace_from = 0.0) {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, 35}, {1, 35}});
  sim::Engine& engine = cluster.engine();
  std::unique_ptr<trace::FreqTrace> ft;
  if (trace_out != nullptr) ft = std::make_unique<trace::FreqTrace>(cluster.machine(0));

  // Latency alone.
  mpi::PingPongOptions ppo;
  ppo.bytes = 4;
  ppo.iterations = 30;
  ppo.tag = 100;
  mpi::PingPong alone(world, 0, 1, ppo);
  alone.start();
  engine.run();

  // AVX512 burn, same flop budget per core (weak scaling, §3.3): sized so
  // 4 cores at 3.0 GHz take ~135 ms as in Fig. 3b.
  core::ComputeTeam::Options copt;
  for (int c = 0; c < cores; ++c) copt.cores.push_back(c);
  copt.data_numa = 0;
  copt.kernel = kernels::VecFlops::traits();
  copt.iters_per_pass = 0.135 * 3.0e9 / (16.0 / 32.0);  // iters = t*f/cycles_per_iter
  copt.repetitions = 3;
  core::ComputeTeam team(cluster.machine(0), copt, cluster.rng());
  core::ComputeTeam team1(cluster.machine(1), copt, cluster.rng());
  ppo.tag = 200;
  ppo.continuous = true;
  mpi::PingPong together(world, 0, 1, ppo);
  together.start();
  team.start();
  team1.start();
  engine.spawn([](core::ComputeTeam& t, mpi::PingPong& p) -> sim::Coro {
    co_await t.done();
    p.request_stop();
  }(team, together));
  engine.run();

  Point pt;
  pt.compute_ms = sim::to_msec(trace::Stats::of(team.pass_durations()).median);
  pt.freq_ghz = cluster.machine(0).governor().core_freq(0) / 1e9;  // post-run: idle
  pt.comm_freq_ghz = cluster.machine(0).governor().core_freq(35) / 1e9;
  pt.lat_alone_us = sim::to_usec(trace::Stats::of(alone.latencies()).median);
  pt.lat_together_us = sim::to_usec(trace::Stats::of(together.latencies()).median);

  if (trace_out != nullptr) {
    trace_out->out() << "frequency trace with " << cores << " AVX512 cores (GHz):\n";
    trace::Table t({"time_s", "avx_core0", "comm_core35"});
    auto sampled = ft->sample(trace_from, engine.now(), 0.05, 36);
    for (std::size_t i = 0; i < sampled.times.size(); ++i)
      t.add_row({sampled.times[i], sampled.core_freqs[0][i] / 1e9,
                 sampled.core_freqs[35][i] / 1e9});
    trace_out->print(t, "fig03_trace_" + std::to_string(cores) + "_cores");
    trace_out->out() << '\n';
  }
  // Frequency during compute: read from the governor's busy table.
  auto cfg = hw::MachineConfig::henri();
  int per_socket = std::min(cores, 18);
  pt.freq_ghz = cfg.turbo_freq(hw::VectorClass::kAvx512, per_socket) / 1e9;
  return pt;
}

int run(FigureContext& ctx) {
  ctx.out() << "--- Fig. 3a: computation time and latency vs computing cores ---\n";
  trace::Table table(
      {"cores", "avx_freq_GHz", "compute_ms", "lat_alone_us", "lat_with_compute_us"});
  for (int cores : {2, 4, 8, 12, 16, 20, 24, 28, 32, 35}) {
    Point p = run_point(cores, nullptr);
    table.add_row({static_cast<double>(cores), p.freq_ghz, p.compute_ms, p.lat_alone_us,
                   p.lat_together_us});
  }
  ctx.print(table, "fig03a_avx512");
  ctx.out() << "\nPaper: 4 cores -> 3.0 GHz / 135 ms; 20 cores -> 2.3 GHz / 210 ms;\n"
               "latency always slightly better with computation (1.33 vs 1.49 us),\n"
               "comm core frequency unaffected by AVX512 neighbours.\n\n";

  ctx.out() << "--- Fig. 3b: trace with 4 AVX512 cores ---\n";
  run_point(4, &ctx);
  ctx.out() << "--- Fig. 3c: trace with 20 AVX512 cores ---\n";
  run_point(20, &ctx);
  return 0;
}

const FigureRegistrar reg("fig03", "Fig. 3",
                          "AVX512 computations: frequencies and network latency", run,
                          "fig03_avx512");

}  // namespace
}  // namespace cci::bench
