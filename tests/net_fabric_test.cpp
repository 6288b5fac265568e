// Switched-fabric topology: bisection bandwidth, incast, oversubscription,
// and the per-message network trace.
#include <gtest/gtest.h>

#include "mpi/world.hpp"
#include "trace/stats.hpp"

namespace cci::net {
namespace {

struct Flow {
  int src, dst;
  mpi::RequestPtr sreq, rreq;
  sim::Time done_at = -1;
};

/// Launch concurrent 256 MB transfers and return per-flow completion times.
std::vector<double> run_flows(Cluster& cluster, mpi::World& world,
                              const std::vector<std::pair<int, int>>& pairs) {
  std::vector<std::unique_ptr<Flow>> flows;
  int tag = 100;
  for (auto [src, dst] : pairs) {
    auto f = std::make_unique<Flow>();
    f->src = src;
    f->dst = dst;
    f->rreq = world.irecv(dst, src, tag, mpi::MsgView{256u << 20, 0, 0});
    f->sreq = world.isend(src, dst, tag, mpi::MsgView{256u << 20, 0, 0});
    ++tag;
    flows.push_back(std::move(f));
  }
  cluster.engine().run();
  std::vector<double> times;
  for (auto& f : flows) {
    EXPECT_TRUE(f->sreq->test());
    times.push_back(cluster.engine().now());
  }
  return times;
}

TEST(Fabric, DisjointPairsGetFullBisection) {
  // 0->1 and 2->3 simultaneously: a non-blocking switch gives both full
  // speed — same completion time as a single transfer.
  Cluster four({.nodes = 4});
  mpi::World world4(four, {{0, -1}, {1, -1}, {2, -1}, {3, -1}});
  run_flows(four, world4, {{0, 1}, {2, 3}});
  double t_pair = four.engine().now();

  Cluster two({.nodes = 2});
  mpi::World world2(two, {{0, -1}, {1, -1}});
  run_flows(two, world2, {{0, 1}});
  double t_single = two.engine().now();
  EXPECT_NEAR(t_pair, t_single, 0.15 * t_single);
}

TEST(Fabric, IncastSharesTheReceiverPort) {
  // 1->0 and 2->0: both squeeze through node 0's rx port (and its NIC).
  Cluster cluster({.nodes = 3});
  mpi::World world(cluster, {{0, -1}, {1, -1}, {2, -1}});
  run_flows(cluster, world, {{1, 0}, {2, 0}});
  double t_incast = cluster.engine().now();

  Cluster solo({.nodes = 3});
  mpi::World world1(solo, {{0, -1}, {1, -1}, {2, -1}});
  run_flows(solo, world1, {{1, 0}});
  double t_solo = solo.engine().now();
  EXPECT_GT(t_incast, 1.6 * t_solo);
}

TEST(Fabric, OversubscribedCrossbarThrottlesDisjointPairs) {
  ClusterSpec spec;
  spec.topology = Topology::single_switch(0.25);  // core carries 1/4 of ports
  spec.nodes = 4;
  Cluster cluster(std::move(spec));
  mpi::World world(cluster, {{0, -1}, {1, -1}, {2, -1}, {3, -1}});
  run_flows(cluster, world, {{0, 1}, {2, 3}});
  double t_oversub = cluster.engine().now();

  Cluster healthy({.nodes = 4});
  mpi::World world2(healthy, {{0, -1}, {1, -1}, {2, -1}, {3, -1}});
  run_flows(healthy, world2, {{0, 1}, {2, 3}});
  EXPECT_GT(t_oversub, 1.5 * healthy.engine().now());
}

TEST(Fabric, MessageTraceRecordsProtocolAndWindows) {
  Cluster cluster({.nodes = 2});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  world.enable_message_trace(true);
  world.irecv(1, 0, 7, mpi::MsgView{64, 0, 0});
  world.isend(0, 1, 7, mpi::MsgView{64, 0, 0});
  world.irecv(1, 0, 8, mpi::MsgView{4u << 20, 0, 0});
  world.isend(0, 1, 8, mpi::MsgView{4u << 20, 0, 0});
  cluster.engine().run();
  const auto& trace = world.message_trace();
  ASSERT_EQ(trace.size(), 2u);
  const auto& small = trace[0].bytes == 64 ? trace[0] : trace[1];
  const auto& big = trace[0].bytes == 64 ? trace[1] : trace[0];
  EXPECT_TRUE(small.eager);
  EXPECT_FALSE(big.eager);
  EXPECT_GT(big.transfer_start, big.post_time);  // rendezvous handshake first
  EXPECT_GT(big.complete_time, big.transfer_start);
  EXPECT_DOUBLE_EQ(small.post_time, small.transfer_start);
}

}  // namespace
}  // namespace cci::net
