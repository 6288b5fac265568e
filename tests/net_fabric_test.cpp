// Switched-fabric topology: bisection bandwidth, incast, oversubscription,
// and the per-message network trace.
#include <gtest/gtest.h>

#include <map>
#include <string>

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
  // The per-message trace is the tracer's spans on the sender's rank track.
  obs::Registry reg;
  obs::Registry::ScopedThreadLocal scope(reg);
  reg.tracer().set_enabled(true);
  Cluster cluster({.nodes = 2});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  world.irecv(1, 0, 7, mpi::MsgView{64, 0, 0});
  world.isend(0, 1, 7, mpi::MsgView{64, 0, 0});
  world.irecv(1, 0, 8, mpi::MsgView{4u << 20, 0, 0});
  world.isend(0, 1, 8, mpi::MsgView{4u << 20, 0, 0});
  cluster.engine().run();
  std::map<std::string, obs::Tracer::Span> spans;
  for (const obs::Tracer::Span& s : reg.tracer().spans()) spans[s.name] = s;
  ASSERT_EQ(spans.count("eager tag=7 B=64"), 1u);
  ASSERT_EQ(spans.count("rndv tag=8 B=4194304"), 1u);
  const obs::Tracer::Span& small = spans["eager tag=7 B=64"];
  const obs::Tracer::Span& big = spans["rndv tag=8 B=4194304"];
  const obs::Tracer::Span& handshake = spans["handshake tag=8 B=4194304"];
  const obs::Tracer::Span& dma = spans["dma tag=8 B=4194304"];
  EXPECT_EQ(spans.count("rndv tag=7 B=64"), 0u);  // eager: no handshake
  EXPECT_EQ(spans.count("eager tag=8 B=4194304"), 0u);
  EXPECT_DOUBLE_EQ(small.t0, 0.0);  // both posted at t = 0
  EXPECT_GT(small.t1, small.t0);
  EXPECT_DOUBLE_EQ(big.t0, 0.0);
  EXPECT_GT(handshake.t1, handshake.t0);
  EXPECT_GE(dma.t0, handshake.t1);  // rendezvous handshake first
  EXPECT_GT(dma.t1, dma.t0);
  EXPECT_EQ(dma.t1, big.t1);
}

}  // namespace
}  // namespace cci::net
