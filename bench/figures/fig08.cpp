// §5.2 + Fig. 8 — task-runtime overhead on communications, and the impact
// of data locality / comm-thread placement through the runtime.
#include "bench/registry.hpp"
#include "mpi/pingpong.hpp"
#include "runtime/rt_pingpong.hpp"

namespace cci::bench {
namespace {

double median_of(std::vector<double> v) {
  return trace::Stats::of(std::move(v)).median;
}

double raw_latency(const hw::MachineConfig& m, const net::NetworkParams& np) {
  net::Cluster cluster({.machine = m, .network = np});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  mpi::PingPongOptions opt;
  opt.bytes = 4;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  return median_of(pp.latencies());
}

double rt_latency(const hw::MachineConfig& m, const net::NetworkParams& np,
                  int comm_core = -1, int data_numa = 0) {
  net::Cluster cluster({.machine = m, .network = np});
  mpi::World world(cluster, {{0, comm_core}, {1, comm_core}});
  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine(m.name);
  cfg.workers_paused = true;  // isolate the stack overhead (§5.2)
  runtime::Runtime rt0(world, 0, cfg);
  runtime::Runtime rt1(world, 1, cfg);
  runtime::RtPingPongOptions opt;
  opt.bytes = 4;
  opt.data_numa_a = data_numa;
  opt.data_numa_b = data_numa;
  runtime::RtPingPong pp(rt0, rt1, opt);
  pp.start();
  cluster.engine().run();
  return median_of(pp.latencies());
}

int run(FigureContext& ctx) {
  ctx.out() << "--- §5.2: latency overhead of the task runtime (us) ---\n";
  trace::Table t({"machine", "raw_MPI_us", "runtime_us", "overhead_us", "paper_overhead_us"});
  struct M { const char* name; hw::MachineConfig cfg; double paper; };
  M machines[] = {{"henri", hw::MachineConfig::henri(), 38.0},
                  {"billy", hw::MachineConfig::billy(), 23.0},
                  {"pyxis", hw::MachineConfig::pyxis(), 45.0}};
  for (auto& m : machines) {
    auto np = net::NetworkParams::for_machine(m.name);
    double raw = raw_latency(m.cfg, np);
    double rt = rt_latency(m.cfg, np);
    t.add_text_row({m.name, trace::fmt(sim::to_usec(raw), 2),
                    trace::fmt(sim::to_usec(rt), 2),
                    trace::fmt(sim::to_usec(rt - raw), 2),
                    trace::fmt(m.paper, 1)});
  }
  ctx.print(t, "fig08_runtime_overhead");

  ctx.out() << "\n--- Fig. 8: data locality x comm-thread placement (henri, runtime) ---\n";
  auto henri = hw::MachineConfig::henri();
  auto np = net::NetworkParams::ib_edr();
  trace::Table f8({"data", "comm_thread", "latency_us"});
  struct Combo { const char* d; const char* c; int numa; int core; };
  Combo combos[] = {{"close", "close", 0, 8},
                    {"close", "far", 0, 35},
                    {"far", "close", 3, 8},
                    {"far", "far", 3, 35}};
  for (auto& c : combos) {
    double lat = rt_latency(henri, np, c.core, c.numa);
    f8.add_text_row({c.d, c.c, trace::fmt(sim::to_usec(lat), 2)});
  }
  ctx.print(f8, "fig08_locality");
  ctx.out() << "\nPaper: what matters most is that the data and the communication thread\n"
               "are on the same NUMA node; the runtime does not additionally degrade\n"
               "bandwidth.\n";
  return 0;
}

const FigureRegistrar reg("fig08", "Fig. 8 / §5.2",
                          "runtime software-stack overhead and locality, via the runtime", run,
                          "fig08_runtime_overhead");

}  // namespace
}  // namespace cci::bench
