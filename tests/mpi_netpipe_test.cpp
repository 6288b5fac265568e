// NetPIPE driver: curve shape, n1/2, protocol-cliff detection.
#include <gtest/gtest.h>

#include "mpi/netpipe.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;
using net::ClusterSpec;
using net::NetworkParams;

struct NetpipeFixture : public ::testing::Test {
  NetpipeFixture() : cluster(ClusterSpec{}),
                     world(cluster, {{0, -1}, {1, -1}}) {}
  Cluster cluster;
  World world;
};

TEST_F(NetpipeFixture, CurveCoversTheRequestedRange) {
  NetpipeOptions opt;
  opt.max_bytes = 1 << 20;
  auto curve = run_netpipe(world, opt);
  ASSERT_FALSE(curve.points.empty());
  EXPECT_EQ(curve.points.front().bytes, 4u);
  EXPECT_GE(curve.points.back().bytes, (1u << 20) - 4);
  // Perturbed sizes are present.
  bool found_perturbed = false;
  for (const auto& p : curve.points)
    if (p.bytes == 1021 || p.bytes == 1027) found_perturbed = true;
  EXPECT_TRUE(found_perturbed);
}

TEST_F(NetpipeFixture, PeakBandwidthNearAsymptote) {
  NetpipeOptions opt;
  opt.perturbation = 0;
  auto curve = run_netpipe(world, opt);
  EXPECT_NEAR(curve.peak_bandwidth(), 10.4e9, 0.7e9);
  EXPECT_GE(curve.best_size(), 16u << 20);
}

TEST_F(NetpipeFixture, HalfPeakSizeIsMidRange) {
  NetpipeOptions opt;
  opt.perturbation = 0;
  auto curve = run_netpipe(world, opt);
  std::size_t n_half = curve.half_peak_size();
  // n1/2 sits between the latency-dominated and streaming regimes.
  EXPECT_GE(n_half, 4u * 1024u);
  EXPECT_LE(n_half, 1u << 20);
}

TEST_F(NetpipeFixture, WellTunedStackHasNoProtocolCliff) {
  // The MadMPI-like defaults switch protocols smoothly: no latency cliff
  // anywhere on the curve (what NetPIPE's perturbed sweep is for).
  NetpipeOptions opt;
  opt.perturbation = 0;
  opt.min_bytes = 1024;
  opt.max_bytes = 1 << 20;
  auto curve = run_netpipe(world, opt);
  EXPECT_TRUE(curve.latency_cliffs(1.6).empty());
}

TEST(NetpipeMistuned, ExpensiveHandshakeShowsAsACliff) {
  // A stack with a 20 us RTS/CTS pays dearly right above the eager
  // threshold — the classic NetPIPE cliff at the protocol switch.
  auto params = NetworkParams::ib_edr();
  params.control_latency = 20e-6;
  Cluster cluster({.network = params});
  World world(cluster, {{0, -1}, {1, -1}});
  NetpipeOptions opt;
  opt.perturbation = 0;
  opt.min_bytes = 1024;
  opt.max_bytes = 1 << 20;
  auto curve = run_netpipe(world, opt);
  auto cliffs = curve.latency_cliffs(1.6);
  bool found = false;
  for (std::size_t s : cliffs)
    if (s == 64u * 1024u) found = true;
  EXPECT_TRUE(found) << "expected a cliff at the 64 KB rendezvous switch";
}

TEST_F(NetpipeFixture, BandwidthIsMonotoneAboveTheCliff) {
  NetpipeOptions opt;
  opt.perturbation = 0;
  opt.min_bytes = 128 * 1024;
  auto curve = run_netpipe(world, opt);
  for (std::size_t i = 1; i < curve.points.size(); ++i)
    EXPECT_GE(curve.points[i].bandwidth, curve.points[i - 1].bandwidth * 0.98) << i;
}

}  // namespace
}  // namespace cci::mpi
