// Overlap benchmark (reference [7] of the paper): nonblocking transfers
// hide behind computation unless the computation hogs the memory bus.
#include <gtest/gtest.h>

#include "kernels/primes.hpp"
#include "kernels/stream.hpp"
#include "mpi/overlap.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;
using net::ClusterSpec;

TEST(Overlap, PureWaitOverlapsNothingButCostsNothing) {
  Cluster cluster(ClusterSpec{});
  World world(cluster, {{0, -1}, {1, -1}});
  OverlapOptions opt;
  opt.bytes = 4 << 20;
  opt.compute_cores = {};  // communication only
  auto r = measure_overlap(world, opt);
  EXPECT_GT(r.t_comm, 0.0);
  EXPECT_DOUBLE_EQ(r.t_comp, 0.0);
}

TEST(Overlap, CpuBoundComputationOverlapsWell) {
  Cluster cluster(ClusterSpec{});
  World world(cluster, {{0, -1}, {1, -1}});
  OverlapOptions opt;
  opt.bytes = 8 << 20;
  opt.kernel = kernels::prime_traits();  // zero memory traffic
  opt.compute_cores = {0, 1, 2, 3};
  auto r = measure_overlap(world, opt);
  // DMA progresses while the cores crunch integers: near-perfect overlap.
  EXPECT_GT(r.ratio(), 0.7);
  EXPECT_LT(r.t_overlap, (r.t_comm + r.t_comp) * 0.95);
}

TEST(Overlap, MemoryBoundComputationDegradesOverlap) {
  auto ratio_with = [](const hw::KernelTraits& kernel, int cores) {
    Cluster cluster(ClusterSpec{});
    World world(cluster, {{0, -1}, {1, -1}});
    OverlapOptions opt;
    opt.bytes = 8 << 20;
    opt.kernel = kernel;
    for (int c = 0; c < cores; ++c) opt.compute_cores.push_back(c);
    return measure_overlap(world, opt).ratio();
  };
  double cpu_bound = ratio_with(kernels::prime_traits(), 8);
  double mem_bound = ratio_with(kernels::triad_traits(), 8);
  // STREAM fights the DMA for the controller: overlap efficiency drops.
  EXPECT_LT(mem_bound, cpu_bound);
}

}  // namespace
}  // namespace cci::mpi
