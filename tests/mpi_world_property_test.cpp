// Property tests for the mini-MPI: random traffic always completes, FIFO
// per-channel ordering holds, and whole simulations are deterministic.
#include <gtest/gtest.h>

#include <memory>

#include "mpi/pingpong.hpp"
#include "mpi/world.hpp"
#include "sim/rng.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;
using net::ClusterSpec;

class RandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTraffic, AllMessagesDelivered) {
  // N ranks, random (src, dst, size, tag) messages with matching receives
  // posted in random order and at random times: everything must complete.
  sim::Rng rng(GetParam());
  const int nodes = 2 + static_cast<int>(rng.below(3));
  Cluster cluster({.nodes = nodes});
  std::vector<RankConfig> rc;
  for (int n = 0; n < nodes; ++n) rc.push_back({n, -1});
  World world(cluster, rc);

  struct Msg {
    int src, dst, tag;
    std::size_t bytes;
  };
  std::vector<Msg> msgs;
  for (int i = 0; i < 30; ++i) {
    Msg m;
    m.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    do {
      m.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (m.dst == m.src);
    m.tag = 100 + i;
    // Mix of eager (tiny) and rendezvous (large) messages.
    m.bytes = rng.uniform() < 0.5 ? 16 + rng.below(4096) : (1u << 16) + rng.below(1u << 21);
    msgs.push_back(m);
  }

  std::vector<RequestPtr> reqs;
  for (const Msg& m : msgs) {
    double t_send = rng.uniform(0.0, 2e-3);
    double t_recv = rng.uniform(0.0, 2e-3);
    cluster.engine().call_at(t_send, [&world, m, &reqs] {
      reqs.push_back(world.isend(m.src, m.dst, m.tag, MsgView{m.bytes, 0, 0}));
    });
    cluster.engine().call_at(t_recv, [&world, m, &reqs] {
      reqs.push_back(world.irecv(m.dst, m.src, m.tag, MsgView{m.bytes, 0, 0}));
    });
  }
  cluster.engine().run();
  for (const auto& r : reqs) EXPECT_TRUE(r->test());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraffic, ::testing::Values(3ull, 17ull, 23ull, 71ull));

TEST(WorldProperty, SameSeedSameLatencies) {
  auto run_once = [] {
    Cluster cluster({.nodes = 2, .seed = 1234});
    World world(cluster, {{0, -1}, {1, -1}});
    PingPongOptions opt;
    opt.bytes = 4096;
    opt.iterations = 25;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().run();
    return pp.latencies();
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(WorldProperty, DifferentSeedsDifferentNoise) {
  auto run_with_seed = [](std::uint64_t seed) {
    Cluster cluster({.nodes = 2, .seed = seed});
    World world(cluster, {{0, -1}, {1, -1}});
    PingPongOptions opt;
    opt.bytes = 4;
    opt.iterations = 10;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().run();
    return pp.latencies();
  };
  auto a = run_with_seed(1);
  auto b = run_with_seed(2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(WorldProperty, SameChannelMessagesMatchInOrder) {
  // Two same-tag messages on one channel: receives complete in post order
  // with sizes matching the send order (MPI non-overtaking).
  Cluster cluster(ClusterSpec{});
  World world(cluster, {{0, -1}, {1, -1}});
  std::vector<int> completion_order;
  cluster.engine().spawn([](World& w, std::vector<int>& order) -> sim::Coro {
    auto r1 = w.irecv(1, 0, 5, MsgView{64, 0, 0});
    auto r2 = w.irecv(1, 0, 5, MsgView{64, 0, 0});
    co_await *r1;
    order.push_back(1);
    co_await *r2;
    order.push_back(2);
  }(world, completion_order));
  cluster.engine().spawn([](World& w) -> sim::Coro {
    co_await *w.isend(0, 1, 5, MsgView{64, 0, 0});
    co_await *w.isend(0, 1, 5, MsgView{64, 0, 0});
  }(world));
  cluster.engine().run();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace cci::mpi
