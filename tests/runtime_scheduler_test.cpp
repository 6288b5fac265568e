// NUMA-aware scheduling and the worker-count advisor (the paper's
// future-work features), plus scheduler correctness properties.
#include <gtest/gtest.h>

#include "kernels/stream.hpp"
#include "runtime/advisor.hpp"
#include "runtime/apps.hpp"
#include "runtime/runtime.hpp"
#include "sim/rng.hpp"

namespace cci::runtime {
namespace {

using hw::MachineConfig;
using net::Cluster;
using net::NetworkParams;

struct Rig {
  Rig() : cluster({.nodes = 2}),
          world(cluster, {{0, -1}, {1, -1}}) {}
  Cluster cluster;
  mpi::World world;
};

void run_to_completion(Rig& rig, Runtime& rt) {
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  ASSERT_TRUE(done.is_set());
}

TEST(NumaScheduler, ReducesRemoteTaskFraction) {
  auto remote_fraction = [](bool numa_aware) {
    Rig rig;
    RuntimeConfig cfg;
    cfg.workers = 16;  // spread over NUMA 0 and 1
    cfg.numa_aware_scheduling = numa_aware;
    Runtime rt(rig.world, 0, cfg);
    hw::KernelTraits triad = kernels::triad_traits();
    // Tasks homed alternately on NUMA 0 and 1 (where the workers are).
    for (int i = 0; i < 64; ++i) rt.add_task({"t", triad, 1e6}, i % 2);
    run_to_completion(rig, rt);
    EXPECT_EQ(rt.tasks_completed(), 64);
    return rt.remote_task_fraction();
  };
  double fifo = remote_fraction(false);
  double numa = remote_fraction(true);
  EXPECT_LT(numa, fifo * 0.8);
  EXPECT_LT(numa, 0.2);
}

TEST(NumaScheduler, StealsWorkInsteadOfStarving) {
  // All tasks on NUMA 3 but all workers on NUMA 0: locality is impossible,
  // the scheduler must still run everything.
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 8;  // cores 0..7 = NUMA 0
  cfg.numa_aware_scheduling = true;
  Runtime rt(rig.world, 0, cfg);
  for (int i = 0; i < 32; ++i)
    rt.add_task({"t", kernels::triad_traits(), 1e6}, 3);
  run_to_completion(rig, rt);
  EXPECT_EQ(rt.tasks_completed(), 32);
  EXPECT_DOUBLE_EQ(rt.remote_task_fraction(), 1.0);
}

TEST(NumaScheduler, RandomDagsExecuteEveryTaskOnce) {
  // Property: arbitrary DAGs complete fully under both schedulers.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    for (bool numa_aware : {false, true}) {
      Rig rig;
      sim::Rng rng(seed);
      RuntimeConfig cfg;
      cfg.workers = 6;
      cfg.numa_aware_scheduling = numa_aware;
      Runtime rt(rig.world, 0, cfg);
      std::vector<Task*> tasks;
      for (int i = 0; i < 40; ++i) {
        Task* t = rt.add_task({"t", kernels::triad_traits(), 1e5 + rng.below(1000)},
                              static_cast<int>(rng.below(4)));
        // Edges only to earlier tasks: guaranteed acyclic.
        for (int e = 0; e < 2 && !tasks.empty(); ++e)
          if (rng.uniform() < 0.5)
            Runtime::add_dependency(tasks[rng.below(tasks.size())], t);
        tasks.push_back(t);
      }
      run_to_completion(rig, rt);
      EXPECT_EQ(rt.tasks_completed(), 40) << "seed " << seed;
    }
  }
}

TEST(Advisor, FindsTheKneeOfASyntheticCurve) {
  // Synthetic makespan: parallel speedup up to 12 workers, contention after.
  auto makespan = [](int n) {
    double ideal = 100.0 / std::min(n, 12);
    double contention = n > 12 ? 2.0 * (n - 12) : 0.0;
    return ideal + contention;
  };
  auto report = select_worker_count(makespan, 34);
  EXPECT_GE(report.best_workers, 10);
  EXPECT_LE(report.best_workers, 16);
  // The advisor tried a bounded number of configurations.
  EXPECT_LE(report.samples.size(), 12u);
}

TEST(Advisor, MonotoneCurvePicksMaximum) {
  auto report = select_worker_count([](int n) { return 100.0 / n; }, 34);
  EXPECT_EQ(report.best_workers, 34);
}

TEST(Advisor, WorksOnTheRealCgApp) {
  auto machine = MachineConfig::henri();
  auto np = NetworkParams::ib_edr();
  auto rt_cfg = RuntimeConfig::for_machine("henri");
  auto makespan = [&](int workers) {
    CgAppOptions opt;
    opt.n = 8192;
    opt.iterations = 2;
    opt.workers = workers;
    return run_cg_app(machine, np, rt_cfg, opt).makespan;
  };
  auto report = select_worker_count(makespan, 34);
  EXPECT_GT(report.best_workers, 1);
  EXPECT_GT(report.best_makespan, 0.0);
  // The best configuration is no slower than the max-worker one.
  double full = makespan(34);
  EXPECT_LE(report.best_makespan, full * 1.001);
}

}  // namespace
}  // namespace cci::runtime
