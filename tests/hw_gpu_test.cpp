// GPU transfer model: copy timing, contention with compute and with the
// network DMA (the paper's future-work scenario, made measurable).
#include <gtest/gtest.h>

#include "hw/frequency_governor.hpp"
#include "hw/gpu.hpp"
#include "hw/workload.hpp"
#include "mpi/pingpong.hpp"
#include "trace/stats.hpp"

namespace cci::hw {
namespace {

struct GpuRig {
  GpuRig() : model(engine), machine(model, MachineConfig::henri()), gpu(machine, GpuConfig{}) {
    machine.governor().set_policy(CpuPolicy::kPerformance);
  }
  sim::Engine engine;
  sim::FlowModel model;
  Machine machine;
  GpuDevice gpu;
};

TEST(Gpu, QuietCopyRunsAtPcieSpeed) {
  GpuRig rig;
  auto act = rig.gpu.copy_async(GpuDevice::Direction::kHostToDevice, 1 << 30, 0);
  rig.engine.run();
  double bw = static_cast<double>(1 << 30) / act->duration();
  EXPECT_NEAR(bw, 12.5e9, 0.2e9);
}

TEST(Gpu, BlockingCopyAddsDriverOverhead) {
  GpuRig rig;
  sim::OneShotEvent done(rig.engine);
  sim::Time finished = -1;
  rig.engine.spawn([](GpuRig& r, sim::OneShotEvent& d, sim::Time& t) -> sim::Coro {
    r.engine.spawn(r.gpu.copy(GpuDevice::Direction::kDeviceToHost, 4096, 0, &d));
    co_await d;
    t = r.engine.now();
  }(rig, done, finished));
  rig.engine.run();
  EXPECT_TRUE(done.is_set());
  // Dominated by the 8 us overhead for a tiny copy.
  EXPECT_GT(finished, 8e-6);
  EXPECT_LT(finished, 12e-6);
}

TEST(Gpu, StreamTrafficSlowsTheCopy) {
  GpuRig rig;
  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  for (int c = 0; c < 9; ++c) {
    rig.machine.governor().core_busy(c, VectorClass::kSse);
    rig.model.start(make_compute_spec(rig.machine, c, 0, triad, 1e12));
  }
  auto act = rig.gpu.copy_async(GpuDevice::Direction::kHostToDevice, 1 << 30, 0);
  rig.engine.run(60.0);
  ASSERT_TRUE(act->finished());
  double bw = static_cast<double>(1 << 30) / act->duration();
  EXPECT_LT(bw, 9e9);  // well below the quiet 12.5 GB/s
}

TEST(Gpu, RemoteHostBufferCrossesTheSocketLink) {
  GpuRig rig;
  auto near = rig.gpu.copy_async(GpuDevice::Direction::kHostToDevice, 256 << 20, 0);
  rig.engine.run();
  auto far = rig.gpu.copy_async(GpuDevice::Direction::kHostToDevice, 256 << 20, 3);
  rig.engine.run();
  // Uncontended both complete at PCIe speed, but the far copy loads the
  // cross-socket link — visible under contention:
  EXPECT_NEAR(near->duration(), far->duration(), 1e-6);
  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  // Saturate the cross link with socket-0 cores reading NUMA 3.
  for (int c = 0; c < 9; ++c) {
    rig.machine.governor().core_busy(c, VectorClass::kSse);
    rig.model.start(make_compute_spec(rig.machine, c, 3, triad, 1e12));
  }
  auto far_loud = rig.gpu.copy_async(GpuDevice::Direction::kHostToDevice, 256 << 20, 3);
  rig.engine.run(60.0);
  ASSERT_TRUE(far_loud->finished());
  EXPECT_GT(far_loud->duration(), 1.5 * far->duration());
}

TEST(Gpu, GpuCopyAndNetworkDmaContendOnTheSameController) {
  // The three-way fight the paper's future work asks about: network DMA,
  // GPU copy and STREAM all share NUMA 0's controller.  Two DMA streams
  // alone fit in the controller (23 < 45 GB/s); scarcity needs the cores.
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  GpuDevice gpu(cluster.machine(0), GpuConfig{});

  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  for (int c = 0; c < 5; ++c) {
    cluster.machine(0).governor().core_busy(c, VectorClass::kSse);
    cluster.machine(0).model().start(make_compute_spec(cluster.machine(0), c, 0, triad, 1e13));
  }

  // Baseline: network + STREAM (no GPU traffic).
  mpi::PingPongOptions opt;
  opt.bytes = 64 << 20;
  opt.iterations = 4;
  opt.warmup = 1;
  opt.tag = 500;
  mpi::PingPong quiet(world, 0, 1, opt);
  quiet.start();
  cluster.engine().run(5.0);
  double base_bw = trace::Stats::of(quiet.bandwidths()).median;

  // Add continuous GPU copies: the network's share must shrink further.
  bool stop = false;
  cluster.engine().spawn([](GpuDevice& g, bool& s) -> sim::Coro {
    while (!s) co_await *g.copy_async(GpuDevice::Direction::kHostToDevice, 64 << 20, 0);
  }(gpu, stop));
  opt.tag = 600;
  mpi::PingPong loud(world, 0, 1, opt);
  loud.start();
  cluster.engine().spawn([](mpi::PingPong& pp, bool& s) -> sim::Coro {
    co_await pp.complete();
    s = true;
  }(loud, stop));
  cluster.engine().run(20.0);
  double loud_bw = trace::Stats::of(loud.bandwidths()).median;
  EXPECT_GT(base_bw, 0.0);
  EXPECT_LT(loud_bw, 0.9 * base_bw);
}

}  // namespace
}  // namespace cci::hw
