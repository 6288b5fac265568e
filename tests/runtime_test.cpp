// Task runtime: DAG execution, §5 overheads/polling, §6 app shapes.
#include <gtest/gtest.h>

#include <algorithm>

#include "mpi/pingpong.hpp"
#include "runtime/apps.hpp"
#include "runtime/rt_pingpong.hpp"
#include "runtime/runtime.hpp"

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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

TEST(Runtime, ReservesMainAndCommCores) {
  Rig rig;
  Runtime rt(rig.world, 0, RuntimeConfig{});
  EXPECT_EQ(rt.worker_count(), 34);  // 36 - comm - main
  for (int core : rt.worker_cores()) {
    EXPECT_NE(core, 35);  // comm
    EXPECT_NE(core, 34);  // main
  }
}

TEST(Runtime, ExecutesDependentTasksInOrder) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  hw::KernelTraits flops{"f", 8.0, 0.0, hw::VectorClass::kScalar};
  Task* a = rt.add_task({"a", flops, 1e6}, 0);
  Task* b = rt.add_task({"b", flops, 1e6}, 0);
  Task* c = rt.add_task({"c", flops, 1e6}, 0);
  Runtime::add_dependency(a, b);
  Runtime::add_dependency(b, c);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  EXPECT_TRUE(done.is_set());
  EXPECT_EQ(rt.tasks_completed(), 3);
}

TEST(Runtime, ParallelTasksUseMultipleWorkers) {
  // 8 independent equal tasks on 4 workers finish in ~2 task-times, not 8.
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  hw::KernelTraits flops{"f", 8.0, 0.0, hw::VectorClass::kScalar};
  // 4 cycles/iter * 2.5e8 iters -> ~0.4s/task at ~2.5 GHz turbo.
  for (int i = 0; i < 8; ++i) rt.add_task({"t", flops, 2.5e8}, 0);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  sim::Time t0 = rig.cluster.engine().now();
  rig.cluster.engine().run();
  double elapsed = rig.cluster.engine().now() - t0;
  EXPECT_LT(elapsed, 4 * 0.45);   // parallel
  EXPECT_GT(elapsed, 2 * 0.25);   // but not more than 4-wide
  EXPECT_EQ(rt.tasks_completed(), 8);
}

TEST(Runtime, SendRecvTasksMoveDataBetweenRanks) {
  Rig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt0(rig.world, 0, cfg);
  Runtime rt1(rig.world, 1, cfg);
  hw::KernelTraits flops{"f", 8.0, 0.0, hw::VectorClass::kScalar};
  Task* produce = rt0.add_task({"produce", flops, 1e6}, 0);
  Task* send = rt0.add_send(1, 42, mpi::MsgView{1 << 20, 0, 0});
  Runtime::add_dependency(produce, send);
  Task* recv = rt1.add_recv(0, 42, mpi::MsgView{1 << 20, 0, 0});
  Task* consume = rt1.add_task({"consume", flops, 1e6}, 0);
  Runtime::add_dependency(recv, consume);

  auto& d0 = rt0.run();
  auto& d1 = rt1.run();
  rig.cluster.engine().spawn(
      [](Runtime& a, Runtime& b, sim::OneShotEvent& ea, sim::OneShotEvent& eb) -> sim::Coro {
        co_await ea;
        co_await eb;
        a.shutdown();
        b.shutdown();
      }(rt0, rt1, d0, d1));
  rig.cluster.engine().run();
  EXPECT_TRUE(d0.is_set());
  EXPECT_TRUE(d1.is_set());
  EXPECT_GT(rig.world.send_stats(0).bytes, 0.0);
}

TEST(Runtime, MessageOverheadMatchesSection52) {
  // §5.2: +38 us on henri, +23 us on billy, +45 us on pyxis.
  EXPECT_DOUBLE_EQ(RuntimeConfig::for_machine("henri").message_overhead, 38e-6);
  EXPECT_DOUBLE_EQ(RuntimeConfig::for_machine("billy").message_overhead, 23e-6);
  EXPECT_DOUBLE_EQ(RuntimeConfig::for_machine("pyxis").message_overhead, 45e-6);
}

TEST(Runtime, RtPingPongPaysRuntimeOverhead) {
  Rig rig;
  // Raw MPI baseline.
  mpi::PingPongOptions raw_opt;
  raw_opt.bytes = 4;
  raw_opt.tag = 800;
  mpi::PingPong raw(rig.world, 0, 1, raw_opt);
  raw.start();
  rig.cluster.engine().run();
  double raw_lat = median(raw.latencies());

  RuntimeConfig cfg = RuntimeConfig::for_machine("henri");
  cfg.workers_paused = true;  // isolate the software-stack overhead
  Runtime rt0(rig.world, 0, cfg);
  Runtime rt1(rig.world, 1, cfg);
  RtPingPongOptions opt;
  opt.bytes = 4;
  opt.tag = 900;
  RtPingPong pp(rt0, rt1, opt);
  pp.start();
  rig.cluster.engine().run();
  double rt_lat = median(pp.latencies());
  EXPECT_NEAR(rt_lat - raw_lat, 38e-6, 4e-6);
}

TEST(Runtime, PollingWorkersIncreaseLatency) {
  // Fig. 9: latency ordering paused <= huge backoff < default < small.
  auto run_with = [](int backoff, bool paused) {
    Rig rig;
    RuntimeConfig cfg = RuntimeConfig::for_machine("henri");
    cfg.backoff_max_nops = backoff;
    cfg.workers_paused = paused;
    Runtime rt0(rig.world, 0, cfg);
    Runtime rt1(rig.world, 1, cfg);
    rt0.start_workers_idle();
    rt1.start_workers_idle();
    RtPingPongOptions opt;
    opt.bytes = 4;
    opt.tag = 910;
    opt.iterations = 20;
    RtPingPong pp(rt0, rt1, opt);
    pp.start();
    rig.cluster.engine().run(5.0);  // workers poll forever; bounded horizon
    return median(pp.latencies());
  };
  double paused = run_with(32, true);
  double huge = run_with(10000, false);
  double dflt = run_with(32, false);
  double tiny = run_with(2, false);
  EXPECT_LE(paused, huge * 1.02);
  EXPECT_LT(huge, dflt);
  EXPECT_LT(dflt, tiny);
}

TEST(Apps, CgLosesMoreSendingBandwidthThanGemm) {
  // Fig. 10 headline: CG (memory-bound) degrades communications far more
  // than GEMM (compute-bound), and stalls explain it.
  auto machine = MachineConfig::henri();
  auto net = NetworkParams::ib_edr();
  auto rt_cfg = RuntimeConfig::for_machine("henri");

  CgAppOptions cg_few;
  cg_few.n = 32768;
  cg_few.iterations = 2;
  cg_few.workers = 2;
  CgAppOptions cg_many = cg_few;
  cg_many.workers = 34;

  auto cg2 = run_cg_app(machine, net, rt_cfg, cg_few);
  auto cg34 = run_cg_app(machine, net, rt_cfg, cg_many);
  EXPECT_GT(cg2.sending_bw, 0.0);
  // More workers -> more stalls and less sending bandwidth.
  EXPECT_GT(cg34.stall_fraction, cg2.stall_fraction - 0.05);
  EXPECT_LT(cg34.sending_bw, 0.85 * cg2.sending_bw);

  GemmAppOptions gm;
  gm.m = 2048;
  gm.tile = 256;
  gm.workers = 34;
  auto gemm34 = run_gemm_app(machine, net, rt_cfg, gm);
  // GEMM's arithmetic intensity shields both its stalls and the network.
  EXPECT_LT(gemm34.stall_fraction, 0.3);
  EXPECT_GT(cg34.stall_fraction, gemm34.stall_fraction + 0.2);
  double cg_loss = 1.0 - cg34.sending_bw / cg2.sending_bw;
  GemmAppOptions gm_few = gm;
  gm_few.workers = 2;
  auto gemm2 = run_gemm_app(machine, net, rt_cfg, gm_few);
  double gemm_loss = 1.0 - gemm34.sending_bw / gemm2.sending_bw;
  EXPECT_GT(cg_loss, gemm_loss);
}

TEST(Apps, CommunicationVolumeConstantAcrossWorkerCounts) {
  // §6: execution parameters fixed -> the amount of communication is the
  // same whatever the number of computing cores.
  auto machine = MachineConfig::henri();
  auto net = NetworkParams::ib_edr();
  auto rt_cfg = RuntimeConfig::for_machine("henri");
  CgAppOptions a;
  a.n = 8192;
  a.iterations = 2;
  a.workers = 4;
  CgAppOptions b = a;
  b.workers = 16;
  auto ra = run_cg_app(machine, net, rt_cfg, a);
  auto rb = run_cg_app(machine, net, rt_cfg, b);
  EXPECT_EQ(ra.tasks, rb.tasks);
}

}  // namespace
}  // namespace cci::runtime
