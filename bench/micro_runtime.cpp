// Runtime microbenchmarks (google-benchmark): task throughput and
// scheduler overhead of the simulated runtime.
#include <benchmark/benchmark.h>

#include "runtime/apps.hpp"
#include "runtime/runtime.hpp"

using namespace cci;

namespace {

void BM_RuntimeTaskThroughput(benchmark::State& state) {
  // Wall-clock cost of simulating N independent tasks on W workers.
  const int tasks = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    net::Cluster cluster({.nodes = 2});
    mpi::World world(cluster, {{0, -1}, {1, -1}});
    runtime::RuntimeConfig cfg;
    cfg.workers = workers;
    runtime::Runtime rt(world, 0, cfg);
    hw::KernelTraits flops{"f", 8.0, 0.0, hw::VectorClass::kScalar};
    for (int i = 0; i < tasks; ++i) rt.add_task({"t", flops, 1e5}, i % 4);
    auto& done = rt.run();
    cluster.engine().spawn([](runtime::Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
      co_await d;
      r.shutdown();
    }(rt, done));
    cluster.engine().run();
    benchmark::DoNotOptimize(rt.tasks_completed());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_RuntimeTaskThroughput)->Args({100, 8})->Args({1000, 32});

void BM_DistributedCgSimulation(benchmark::State& state) {
  // Cost of one full distributed-CG simulation (the Fig. 10 inner loop).
  for (auto _ : state) {
    runtime::CgAppOptions opt;
    opt.n = 8192;
    opt.iterations = 2;
    opt.workers = static_cast<int>(state.range(0));
    auto r = runtime::run_cg_app(hw::MachineConfig::henri(), net::NetworkParams::ib_edr(),
                                 runtime::RuntimeConfig::for_machine("henri"), opt);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_DistributedCgSimulation)->Arg(8)->Arg(34);

}  // namespace

BENCHMARK_MAIN();
