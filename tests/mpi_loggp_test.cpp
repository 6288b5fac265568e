// LogGP fitting: the extracted parameters must match the network model's
// construction (G ~ 1/asymptotic bandwidth; o scales with 1/f).
#include <gtest/gtest.h>

#include "mpi/loggp.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;
using net::ClusterSpec;

TEST(LogGP, GapMatchesAsymptoticBandwidth) {
  Cluster cluster(ClusterSpec{});
  World world(cluster, {{0, -1}, {1, -1}});
  std::vector<std::size_t> sizes{4, 1024, 1u << 20, 8u << 20, 32u << 20, 64u << 20};
  auto times = measure_one_way_times(world, sizes);
  auto p = fit_loggp(sizes, times);
  // G ~ 1 / 10.5 GB/s (max uncore engaged by the active comm cores).
  EXPECT_NEAR(1.0 / p.gap_per_byte, 10.4e9, 0.5e9);
  EXPECT_GT(p.latency + 2 * p.overhead, 1.3e-6);
  EXPECT_LT(p.latency + 2 * p.overhead, 2.2e-6);
  EXPECT_LT(p.fit_residual, 0.1e-3);
}

TEST(LogGP, TwoFrequencyFitSeparatesOverheadFromLatency) {
  Cluster cluster(ClusterSpec{});
  auto p = fit_loggp_two_frequencies(cluster, 1.0e9, 2.3e9, /*comm_core=*/35);
  // Construction: o_send+o_recv = 2300 cycles -> o ~ 1150 cycles.
  // At 2.3 GHz: o ~ 0.5 us; L is the frequency-independent remainder.
  EXPECT_NEAR(p.overhead, 0.5e-6, 0.15e-6);
  EXPECT_GT(p.latency, 0.5e-6);
  EXPECT_LT(p.latency, 1.2e-6);
  // Sanity: intercept reassembles to the measured small-message time.
  EXPECT_NEAR(p.latency + 2 * p.overhead, 1.84e-6, 0.25e-6);
}

TEST(LogGP, MeasuredTimesAreMonotoneInSize) {
  Cluster cluster(ClusterSpec{});
  World world(cluster, {{0, -1}, {1, -1}});
  std::vector<std::size_t> sizes{4, 64, 4096, 65536, 1u << 20, 16u << 20};
  auto times = measure_one_way_times(world, sizes);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_GE(times[i], times[i - 1] * 0.98) << i;
}

}  // namespace
}  // namespace cci::mpi
