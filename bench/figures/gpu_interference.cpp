// Extension (paper future work): interference between GPU transfers,
// network DMA and computation on the shared host memory system.
#include "bench/registry.hpp"
#include "hw/gpu.hpp"
#include "kernels/stream.hpp"
#include "mpi/pingpong.hpp"

namespace cci::bench {
namespace {

struct Point {
  double net_bw = 0.0;
  double gpu_bw = 0.0;
};

Point run_point(int stream_cores, bool with_gpu, bool with_net) {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  hw::GpuDevice gpu(cluster.machine(0), hw::GpuConfig{});

  hw::KernelTraits triad = kernels::triad_traits();
  for (int c = 0; c < stream_cores; ++c) {
    cluster.machine(0).governor().core_busy(c, hw::VectorClass::kSse);
    cluster.machine(0).model().start(
        hw::make_compute_spec(cluster.machine(0), c, 0, triad, 1e12));
  }

  Point point;
  bool stop = false;
  double gpu_bytes = 0.0;
  sim::Time gpu_started = 0.0;
  if (with_gpu) {
    cluster.engine().spawn([](hw::GpuDevice& g, bool& s, double& bytes) -> sim::Coro {
      while (!s) {
        co_await *g.copy_async(hw::GpuDevice::Direction::kHostToDevice, 64 << 20, 0);
        bytes += 64 << 20;
      }
    }(gpu, stop, gpu_bytes));
  }

  if (with_net) {
    mpi::PingPongOptions opt;
    opt.bytes = 64 << 20;
    opt.iterations = 5;
    opt.warmup = 1;
    mpi::PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().spawn([](mpi::PingPong& p, bool& s) -> sim::Coro {
      co_await p.complete();
      s = true;
    }(pp, stop));
    cluster.engine().run(30.0);
    point.net_bw = trace::Stats::of(pp.bandwidths()).median;
  } else if (with_gpu) {
    cluster.engine().call_at(0.1, [&] { stop = true; });
    cluster.engine().run(30.0);
  }
  double elapsed = cluster.engine().now() - gpu_started;
  if (with_gpu && elapsed > 0) point.gpu_bw = gpu_bytes / elapsed;
  return point;
}

int run(FigureContext& ctx) {
  trace::Table t({"stream_cores", "net_alone_GBps", "net_with_gpu_GBps", "gpu_alone_GBps",
                  "gpu_with_net_GBps"});
  for (int cores : {0, 2, 5, 9}) {
    Point net_only = run_point(cores, false, true);
    Point both = run_point(cores, true, true);
    Point gpu_only = run_point(cores, true, false);
    t.add_row({static_cast<double>(cores), net_only.net_bw / 1e9, both.net_bw / 1e9,
               gpu_only.gpu_bw / 1e9, both.gpu_bw / 1e9});
  }
  ctx.print(t, "gpu_interference");
  ctx.out() << "\nThe GPU's PCIe stream is one more DMA client of the same controller:\n"
               "with enough computing cores, network, GPU and cores all squeeze each\n"
               "other — the three-way version of the paper's §4.\n";
  return 0;
}

const FigureRegistrar reg("gpu_interference", "GPU",
                          "host<->device copies vs network DMA vs STREAM (future work)", run);

}  // namespace
}  // namespace cci::bench
