// Failover: worker deaths, rank deaths, heartbeat detection, abortable
// barriers, graceful job abort with diagnostics.
#include <gtest/gtest.h>

#include <string>

#include "runtime/distributed.hpp"
#include "runtime/runtime.hpp"

namespace cci::runtime {
namespace {

using net::Cluster;

const hw::KernelTraits kFlops{"f", 8.0, 0.0, hw::VectorClass::kScalar};

struct Rig {
  Rig() : cluster({.nodes = 2}),
          world(cluster, {{0, -1}, {1, -1}}) {}
  Cluster cluster;
  mpi::World world;
};

TEST(Failover, DeadWorkersTasksReexecuteElsewhere) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  // 8 tasks of ~0.4 s on 4 workers; worker 0 dies mid-first-task.
  for (int i = 0; i < 8; ++i) rt.add_task({"t", kFlops, 2.5e8}, 0);
  rt.kill_worker_at(0, 0.2);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  EXPECT_TRUE(done.is_set());
  EXPECT_EQ(rt.tasks_completed(), 8);  // nothing lost
  EXPECT_GE(rt.tasks_reexecuted(), 1);
}

TEST(Failover, IdleWorkerDeathDoesNotStallTheGraph) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  Task* a = rt.add_task({"a", kFlops, 1e6}, 0);
  Task* b = rt.add_task({"b", kFlops, 1e6}, 0);
  Runtime::add_dependency(a, b);
  rt.arm_failover();
  auto& done = rt.run();
  // Kill a worker that is almost certainly idle (2 serial tasks, 4 workers).
  rig.cluster.engine().call_at(1e-4, [&] { rt.fail_worker(3); });
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  EXPECT_TRUE(done.is_set());
  EXPECT_EQ(rt.tasks_completed(), 2);
}

TEST(Failover, HealthyDistributedRunWithHeartbeatsCompletes) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  DistributedOptions opts;
  opts.heartbeat_interval = 0.01;
  DistributedRuntime drt(rig.world, cfg, opts);
  for (int r = 0; r < drt.ranks(); ++r)
    for (int i = 0; i < 4; ++i) drt.runtime(r).add_task({"t", kFlops, 5e7}, 0);
  DistributedRuntime::Report rep = drt.run_to_completion();
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.dead_rank, -1);
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_EQ(drt.runtime(0).tasks_completed(), 4);
  EXPECT_EQ(drt.runtime(1).tasks_completed(), 4);
}

/// Two-rank graph with a message: rank 0 computes, sends 1 MiB to rank 1
/// and runs a long task; rank 1 receives, then computes.  Rank 0 finishes
/// last, so a sequential join finds rank 1's event already set.
void build_send_recv_graph(Runtime& rt0, Runtime& rt1) {
  Task* a = rt0.add_task({"a", kFlops, 5e7}, 0);
  Runtime::add_dependency(a, rt0.add_send(1, 7, mpi::MsgView{1 << 20, 0, 0}));
  rt0.add_task({"long", kFlops, 4e8}, 0);
  Task* r = rt1.add_recv(0, 7, mpi::MsgView{1 << 20, 0, 0});
  Runtime::add_dependency(r, rt1.add_task({"b", kFlops, 5e7}, 0));
}

TEST(Failover, HealthyJoinDispatchesTheSameEventsAsASequentialJoin) {
  RuntimeConfig cfg;
  cfg.workers = 2;

  // Reference: the plain sequential joiner, written out.
  Rig ref;
  Runtime ref0(ref.world, 0, cfg);
  Runtime ref1(ref.world, 1, cfg);
  build_send_recv_graph(ref0, ref1);
  sim::OneShotEvent& done0 = ref0.run();
  sim::OneShotEvent& done1 = ref1.run();
  ref.cluster.engine().spawn([](sim::OneShotEvent& d0, sim::OneShotEvent& d1, Runtime& r0,
                                Runtime& r1) -> sim::Coro {
    co_await d0.wait();
    co_await d1.wait();
    r0.shutdown();
    r1.shutdown();
  }(done0, done1, ref0, ref1));
  ref.cluster.engine().run();

  // DistributedRuntime's failure-aware join: healthy, unarmed, no heartbeats.
  Rig rig;
  DistributedRuntime drt(rig.world, cfg);
  build_send_recv_graph(drt.runtime(0), drt.runtime(1));
  DistributedRuntime::Report rep = drt.run_to_completion();

  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(drt.runtime(1).tasks_completed(), 2);
  EXPECT_EQ(rep.makespan, ref.cluster.engine().now());
  EXPECT_EQ(rig.cluster.engine().events_dispatched(), ref.cluster.engine().events_dispatched());
}

TEST(Failover, SilentRankIsDeclaredDeadByHeartbeats) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  DistributedOptions opts;
  opts.heartbeat_interval = 0.01;  // death declared ~3 intervals after kill
  DistributedRuntime drt(rig.world, cfg, opts);
  // Long tasks on both ranks so the job is mid-flight when rank 1 dies.
  drt.runtime(0).add_task({"long0", kFlops, 2.5e8}, 0);
  drt.runtime(1).add_task({"long1", kFlops, 2.5e8}, 0);
  drt.kill_rank(1, 0.05);
  DistributedRuntime::Report rep = drt.run_to_completion();
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.dead_rank, 1);
  EXPECT_NE(rep.diagnostic.find("rank 1"), std::string::npos) << rep.diagnostic;
  EXPECT_NE(rep.diagnostic.find("no heartbeat"), std::string::npos) << rep.diagnostic;
  EXPECT_TRUE(drt.failed());
}

TEST(Failover, KillWithoutHeartbeatsIsDeclaredImmediately) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  DistributedRuntime drt(rig.world, cfg);  // heartbeats off
  drt.runtime(0).add_task({"long0", kFlops, 2.5e8}, 0);
  drt.runtime(1).add_task({"long1", kFlops, 2.5e8}, 0);
  drt.kill_rank(1, 0.05);
  DistributedRuntime::Report rep = drt.run_to_completion();
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.dead_rank, 1);
  EXPECT_NE(rep.diagnostic.find("killed"), std::string::npos) << rep.diagnostic;
}

TEST(Failover, BarrierAbortsWhenAPeerDies) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  DistributedRuntime drt(rig.world, cfg);
  drt.kill_rank(1, 0.01);  // declared dead at t=0.01 (no heartbeats)
  sim::OneShotEvent done0(rig.cluster.engine());
  bool aborted0 = false;
  // Rank 0 enters the barrier; rank 1 never will.
  rig.cluster.engine().spawn(drt.barrier(0, &done0, &aborted0));
  rig.cluster.engine().run();
  EXPECT_TRUE(done0.is_set());  // returned rather than hanging
  EXPECT_TRUE(aborted0);
  EXPECT_EQ(drt.dead_rank(), 1);
}

}  // namespace
}  // namespace cci::runtime
