// Fig. 9 — impact of polling workers on network latency (henri).
//
// Workers have no tasks and busy-poll the shared scheduler list with
// exponential backoff; a runtime-level ping-pong measures latency for the
// paper's four configurations.
#include "bench/registry.hpp"
#include "runtime/rt_pingpong.hpp"

namespace cci::bench {
namespace {

double run_config(int backoff, bool paused, std::size_t bytes) {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine("henri");
  cfg.backoff_max_nops = backoff;
  cfg.workers_paused = paused;
  runtime::Runtime rt0(world, 0, cfg);
  runtime::Runtime rt1(world, 1, cfg);
  rt0.start_workers_idle();
  rt1.start_workers_idle();
  runtime::RtPingPongOptions opt;
  opt.bytes = bytes;
  opt.iterations = bytes >= (1u << 20) ? 5 : 20;
  runtime::RtPingPong pp(rt0, rt1, opt);
  pp.start();
  cluster.engine().run(10.0);  // workers poll forever: bounded horizon
  rt0.shutdown();  // flushes the poll-count integral into the registry
  rt1.shutdown();
  return trace::Stats::of(pp.latencies()).median;
}

int run(FigureContext& ctx) {
  trace::Table t({"msg_bytes", "paused_us", "backoff_10000_us", "backoff_32_default_us",
                  "backoff_2_us"});
  for (std::size_t bytes : {4u, 64u, 1024u, 16384u, 262144u}) {
    double paused = run_config(32, true, bytes);
    double slow = run_config(10000, false, bytes);
    double dflt = run_config(32, false, bytes);
    double fast = run_config(2, false, bytes);
    t.add_row({static_cast<double>(bytes), sim::to_usec(paused), sim::to_usec(slow),
               sim::to_usec(dflt), sim::to_usec(fast)});
    ctx.obs().write_record({{"msg_bytes", static_cast<double>(bytes)},
                            {"paused_us", sim::to_usec(paused)},
                            {"backoff_32_default_us", sim::to_usec(dflt)}});
  }
  ctx.print(t, "fig09_worker_polling");
  ctx.out() << "\nPaper: latency is higher the more often workers poll; a very long\n"
               "backoff behaves like paused workers.  (On billy/pyxis the effect\n"
               "vanishes — different locking; modelled via lock_delay_per_worker=0.)\n";
  return 0;
}

const FigureRegistrar reg("fig09", "Fig. 9",
                          "impact of worker polling (backoff) on network latency", run,
                          "fig09_worker_polling");

}  // namespace
}  // namespace cci::bench
