// Fig. 2 — frequency timeline during (A) only communications, (B) idle,
// (C) communications + 20 cores of CPU-bound computation (prime counting),
// on henri with the ondemand governor.
#include "bench/registry.hpp"
#include "core/compute_team.hpp"
#include "kernels/primes.hpp"
#include "mpi/pingpong.hpp"
#include "trace/freq_trace.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, 35}, {1, 35}});
  trace::FreqTrace trace(cluster.machine(0));
  sim::Engine& engine = cluster.engine();

  // Phase A [0, 0.3s): continuous latency ping-pong, nothing else.
  mpi::PingPongOptions ppo;
  ppo.bytes = 4;
  ppo.continuous = true;
  ppo.tag = 100;
  mpi::PingPong pp_a(world, 0, 1, ppo);
  pp_a.start();
  engine.call_at(0.3, [&] { pp_a.request_stop(); });
  engine.run(0.35);

  // Phase B [0.35, 0.65s): everything idle (governor drops to min).
  engine.call_at(0.65, [] {});
  engine.run(0.65);

  // Phase C [0.65s, ...): ping-pong + 20 cores counting primes.
  core::ComputeTeam::Options copt;
  for (int c = 0; c < 20; ++c) copt.cores.push_back(c);
  copt.data_numa = 0;
  copt.kernel = kernels::prime_traits();
  copt.iters_per_pass = 0.2 * 2.3e9 / 2.0;  // ~0.2 s of trial divisions
  copt.repetitions = 2;
  core::ComputeTeam team(cluster.machine(0), copt, cluster.rng());
  ppo.tag = 200;
  mpi::PingPong pp_c(world, 0, 1, ppo);
  pp_c.start();
  team.start();
  engine.spawn([](core::ComputeTeam& t, mpi::PingPong& p) -> sim::Coro {
    co_await t.done();
    p.request_stop();
  }(team, pp_c));
  engine.run();

  // Timeline: comm core (35), a computing core (0), an always-idle core (30).
  ctx.out() << "phase A = comm only, B = idle, C = comm + 20 computing cores\n\n";
  trace::Table table({"time_s", "comm_core35_GHz", "compute_core0_GHz", "idle_core30_GHz"});
  auto sampled = trace.sample(0.0, engine.now(), 0.05, 36);
  for (std::size_t i = 0; i < sampled.times.size(); ++i) {
    table.add_row({sampled.times[i], sampled.core_freqs[35][i] / 1e9,
                   sampled.core_freqs[0][i] / 1e9, sampled.core_freqs[30][i] / 1e9});
  }
  ctx.print(table, "fig02_freq_trace");

  ctx.out() << "\nLatency phase A: "
            << trace::format_time(trace::Stats::of(pp_a.latencies()).median)
            << "  phase C: " << trace::format_time(trace::Stats::of(pp_c.latencies()).median)
            << "   (paper: 1.7 us vs 1.52 us — slightly better with computation)\n";
  return 0;
}

const FigureRegistrar reg("fig02", "Fig. 2",
                          "frequency variations: (A) comm only, (B) idle, (C) comm+compute",
                          run, "fig02_freq_trace");

}  // namespace
}  // namespace cci::bench
