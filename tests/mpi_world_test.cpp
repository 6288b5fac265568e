// Mini-MPI: matching semantics, protocols, and latency/bandwidth
// calibration against the paper's §3 numbers on quiet machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "hw/frequency_governor.hpp"
#include "mpi/pingpong.hpp"
#include "mpi/world.hpp"
#include "sim/pool.hpp"

namespace cci::mpi {
namespace {

using hw::CpuPolicy;
using net::Cluster;
using net::ClusterSpec;

std::unique_ptr<Cluster> henri_cluster() {
  return std::make_unique<Cluster>(ClusterSpec{});
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

TEST(World, BlockingSendRecvDeliversInOrder) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  std::vector<int> order;
  cluster->engine().spawn([](World& w, std::vector<int>& o) -> sim::Coro {
    co_await *w.isend(0, 1, 1, MsgView{64, 0, 0});
    o.push_back(1);
    co_await *w.isend(0, 1, 2, MsgView{64, 0, 0});
    o.push_back(2);
  }(world, order));
  cluster->engine().spawn([](World& w, std::vector<int>& o) -> sim::Coro {
    co_await *w.irecv(1, 0, 1, MsgView{64, 0, 0});
    o.push_back(11);
    co_await *w.irecv(1, 0, 2, MsgView{64, 0, 0});
    o.push_back(12);
  }(world, order));
  cluster->engine().run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_LT(std::find(order.begin(), order.end(), 1), std::find(order.begin(), order.end(), 11));
}

TEST(World, UnexpectedEagerMessageIsBuffered) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  bool received = false;
  // Send happens immediately; recv posted 1 ms later.
  cluster->engine().spawn([](World& w) -> sim::Coro {
    co_await *w.isend(0, 1, 7, MsgView{256, 0, 0});
  }(world));
  cluster->engine().spawn([](World& w, bool& flag) -> sim::Coro {
    co_await w.engine().sleep(1e-3);
    co_await *w.irecv(1, 0, 7, MsgView{256, 0, 0});
    flag = true;
  }(world, received));
  cluster->engine().run();
  EXPECT_TRUE(received);
}

TEST(World, RendezvousWaitsForReceiver) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  sim::Time send_done = -1.0;
  cluster->engine().spawn([](World& w, sim::Time& t) -> sim::Coro {
    co_await *w.isend(0, 1, 7, MsgView{1 << 20, 0, 0});  // 1 MB: rendezvous
    t = w.engine().now();
  }(world, send_done));
  cluster->engine().spawn([](World& w) -> sim::Coro {
    co_await w.engine().sleep(5e-3);  // receiver shows up late
    co_await *w.irecv(1, 0, 7, MsgView{1 << 20, 0, 0});
  }(world));
  cluster->engine().run();
  // The DMA cannot start before the recv was posted at t=5ms.
  EXPECT_GT(send_done, 5e-3);
}

TEST(World, WildcardsMatch) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  bool got = false;
  cluster->engine().spawn([](World& w, bool& flag) -> sim::Coro {
    co_await *w.irecv(1, kAnySource, kAnyTag, MsgView{64, 0, 0});
    flag = true;
  }(world, got));
  cluster->engine().spawn([](World& w) -> sim::Coro {
    co_await *w.isend(0, 1, 42, MsgView{64, 0, 0});
  }(world));
  cluster->engine().run();
  EXPECT_TRUE(got);
}

/// MPI's first-match rule with several entries queued on one rank: a
/// message matches the earliest posted receive that accepts it, and a
/// receive matches the earliest unexpected arrival it accepts, wildcards
/// included.  Each step runs the engine dry, so exactly one pair matches.
TEST(World, MatchesInPostingAndArrivalOrderWithWildcards) {
  ClusterSpec spec;
  spec.nodes = 3;
  Cluster cluster(spec);
  World world(cluster, {{0, -1}, {1, -1}, {2, -1}});
  const MsgView eager{64, 0, 0};
  const MsgView rndv{1 << 20, 0, 0};

  // Posted queue, in posting order; eager sends from ranks 0 and 1.
  const std::vector<RequestPtr> posted = {
      world.irecv(2, 0, 5, eager),                 // (0, 5)
      world.irecv(2, kAnySource, 7, eager),        // (*, 7)
      world.irecv(2, 1, kAnyTag, eager),           // (1, *)
      world.irecv(2, kAnySource, kAnyTag, eager),  // (*, *)
  };
  // Each message, and the receive the first match picks: (1, 7) passes
  // over (0, 5) to the middle entry, (1, 5) skips (0, 5) for (1, *), and
  // (0, 9) falls through to (*, *) before (0, 5) takes its exact match.
  const struct {
    int src;
    int tag;
    std::size_t matched;
  } sends[] = {{1, 7, 1}, {1, 5, 2}, {0, 9, 3}, {0, 5, 0}};
  std::vector<bool> done(posted.size(), false);
  for (const auto& s : sends) {
    (void)world.isend(s.src, 2, s.tag, eager);
    cluster.engine().run();
    done[s.matched] = true;
    for (std::size_t r = 0; r < posted.size(); ++r)
      EXPECT_EQ(posted[r]->test(), done[r]) << "receive " << r << " after (" << s.src << ", "
                                            << s.tag << ")";
  }

  // Unexpected queue, in arrival order: rendezvous sends complete only once
  // a receive matched their RTS, which names the arrival each receive took.
  const struct {
    int src;
    int tag;
  } arrivals[] = {{0, 5}, {1, 7}, {0, 7}, {1, 9}};
  std::vector<RequestPtr> sent;
  for (const auto& a : arrivals) {
    sent.push_back(world.isend(a.src, 2, a.tag, rndv));
    cluster.engine().run();
  }
  for (const RequestPtr& s : sent) ASSERT_FALSE(s->test());
  // (*, 7) passes over (0, 5) to the middle arrival (1, 7); (0, *) takes
  // (0, 5); (*, *) the earlier of the two left; (1, 9) the last.
  const struct {
    int src;
    int tag;
    std::size_t matched;
  } recvs[] = {{kAnySource, 7, 1}, {0, kAnyTag, 0}, {kAnySource, kAnyTag, 2}, {1, 9, 3}};
  std::vector<bool> matched(sent.size(), false);
  for (const auto& r : recvs) {
    const RequestPtr req = world.irecv(2, r.src, r.tag, rndv);
    cluster.engine().run();
    EXPECT_TRUE(req->test());
    matched[r.matched] = true;
    for (std::size_t a = 0; a < sent.size(); ++a)
      EXPECT_EQ(sent[a]->test(), matched[a]) << "arrival " << a << " after receive ("
                                             << r.src << ", " << r.tag << ")";
  }
}

/// Post a completed eager exchange, a never-matched receive and a
/// rendezvous send whose receive never comes (its coroutine frame stays
/// parked in the engine, holding pooled objects), then destroy the World
/// and the Cluster in the given order.  The requests handed out must stay
/// readable afterwards, whichever path their slabs took.
void requests_outlive_their_world(bool pooled, bool cluster_first) {
  sim::set_pools_enabled(pooled);
  RequestPtr sent;
  RequestPtr received;
  RequestPtr unmatched;
  RequestPtr rndv;
  {
    auto cluster = henri_cluster();
    auto world = std::make_unique<World>(*cluster, std::vector<RankConfig>{{0, -1}, {1, -1}});
    sent = world->isend(0, 1, 1, MsgView{64, 0, 0});
    received = world->irecv(1, 0, 1, MsgView{64, 0, 0});
    unmatched = world->irecv(1, 0, 2, MsgView{64, 0, 0});
    rndv = world->isend(0, 1, 3, MsgView{std::size_t{8} << 20, 0, 0});
    cluster->engine().run();
    ASSERT_TRUE(sent->test());
    ASSERT_TRUE(received->test());
    ASSERT_FALSE(unmatched->test());
    ASSERT_FALSE(rndv->test());
    // FabricLab::run rebuilds its Cluster before its World, so a World must
    // survive its engine; InterferenceLab tears down the other way round.
    if (cluster_first) cluster.reset();
    world.reset();
  }
  EXPECT_TRUE(sent->test());
  EXPECT_TRUE(sent->ok());
  EXPECT_TRUE(received->test());
  EXPECT_EQ(received->status(), MpiStatus::kOk);
  EXPECT_FALSE(unmatched->test());
  EXPECT_FALSE(rndv->test());
  EXPECT_TRUE(rndv->ok());
  // The last references free the orphaned slabs (pools on) or the objects
  // themselves (pools off); the sanitizer jobs check both.
  sent.reset();
  received.reset();
  unmatched.reset();
  rndv.reset();
  sim::set_pools_enabled(true);
}

TEST(World, RequestOutlivesWorldWithPoolsOn) {
  requests_outlive_their_world(/*pooled=*/true, /*cluster_first=*/false);
  requests_outlive_their_world(/*pooled=*/true, /*cluster_first=*/true);
}

TEST(World, RequestOutlivesWorldWithPoolsOff) {
  requests_outlive_their_world(/*pooled=*/false, /*cluster_first=*/false);
  requests_outlive_their_world(/*pooled=*/false, /*cluster_first=*/true);
}

TEST(PingPong, TakeLatenciesMovesTheSamplesOut) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  PingPongOptions opt;
  opt.iterations = 7;
  PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster->engine().run();
  const std::vector<double> seen = pp.latencies();
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(pp.take_latencies(), seen);
  EXPECT_TRUE(pp.latencies().empty());
  EXPECT_TRUE(pp.take_latencies().empty());
}

TEST(World, RegistrationCostPaidOncePerBuffer) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  std::vector<sim::Time> durations;
  cluster->engine().spawn([](World& w, std::vector<sim::Time>& d) -> sim::Coro {
    for (int i = 0; i < 3; ++i) {
      sim::Time t0 = w.engine().now();
      co_await *w.isend(0, 1, 7 + i, MsgView{1 << 20, 0, /*buffer_id=*/55});
      d.push_back(w.engine().now() - t0);
    }
  }(world, durations));
  cluster->engine().spawn([](World& w) -> sim::Coro {
    for (int i = 0; i < 3; ++i) co_await *w.irecv(1, 0, 7 + i, MsgView{1 << 20, 0, 66});
  }(world));
  cluster->engine().run();
  ASSERT_EQ(durations.size(), 3u);
  // First send pays two registrations (~50 us + bytes); later ones do not.
  EXPECT_GT(durations[0], durations[1] + 80e-6);
  EXPECT_NEAR(durations[1], durations[2], 0.2 * durations[1]);
}

// ---- calibration against §3 ------------------------------------------------

struct LatencyFixture {
  std::unique_ptr<Cluster> cluster = henri_cluster();
  double run_latency(int comm_core, std::size_t bytes = 4, int data_numa = 0) {
    World world(*cluster, {{0, comm_core}, {1, comm_core}});
    PingPongOptions opt;
    opt.bytes = bytes;
    opt.iterations = 30;
    opt.data_numa_a = data_numa;
    opt.data_numa_b = data_numa;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster->engine().run();
    return median(pp.latencies());
  }
};

TEST(Calibration, QuietLatencyNearNicMatchesPaper) {
  LatencyFixture f;
  // Comm thread on NUMA 0 (NIC side): paper reports 1.39 us.
  double lat = f.run_latency(/*comm_core=*/8);
  EXPECT_GT(lat, 1.1e-6);
  EXPECT_LT(lat, 1.7e-6);
}

TEST(Calibration, QuietLatencyFarFromNicMatchesPaper) {
  LatencyFixture f;
  // Comm thread on the last core (socket 1): paper reports 1.67 us.
  double lat = f.run_latency(/*comm_core=*/35);
  EXPECT_GT(lat, 1.4e-6);
  EXPECT_LT(lat, 2.0e-6);
  // And near < far.
  LatencyFixture g;
  EXPECT_LT(g.run_latency(8), lat);
}

TEST(Calibration, PinnedCoreFrequencyMovesLatencyAsFig1a) {
  // 2300 MHz -> ~1.8 us; 1000 MHz -> ~3.1 us (far placement, as Fig. 1).
  auto run_pinned = [](double hz) {
    auto cluster = henri_cluster();
    for (int n = 0; n < 2; ++n) cluster->machine(n).governor().pin_core_freq(hz);
    World world(*cluster, {{0, 35}, {1, 35}});
    PingPongOptions opt;
    opt.bytes = 4;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster->engine().run();
    return median(pp.latencies());
  };
  double fast = run_pinned(2.3e9);
  double slow = run_pinned(1.0e9);
  EXPECT_NEAR(fast, 1.8e-6, 0.25e-6);
  EXPECT_NEAR(slow, 3.1e-6, 0.4e-6);
  EXPECT_GT(slow / fast, 1.6);  // paper: +72%
}

TEST(Calibration, AsymptoticBandwidthMatchesFig1b) {
  auto run_bw = [](double uncore_hz) {
    auto cluster = henri_cluster();
    if (uncore_hz > 0)
      for (int n = 0; n < 2; ++n) cluster->machine(n).governor().pin_uncore_freq(uncore_hz);
    World world(*cluster, {{0, 35}, {1, 35}});
    PingPongOptions opt;
    opt.bytes = 64 << 20;
    opt.iterations = 6;
    opt.warmup = 2;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster->engine().run();
    return median(pp.bandwidths());
  };
  double bw_max = run_bw(2.4e9);
  double bw_min = run_bw(1.2e9);
  // Paper: 10.5 GB/s vs 10.1 GB/s.
  EXPECT_NEAR(bw_max, 10.5e9, 0.6e9);
  EXPECT_NEAR(bw_min, 10.1e9, 0.6e9);
  EXPECT_GT(bw_max, bw_min);
}

TEST(Calibration, UncoreBarelyMovesLatency) {
  // Fig. 1a: +5% when changing only the uncore, vs +72% for the core.
  auto run_lat = [](double uncore_hz) {
    auto cluster = henri_cluster();
    for (int n = 0; n < 2; ++n) {
      cluster->machine(n).governor().pin_core_freq(2.3e9);
      cluster->machine(n).governor().pin_uncore_freq(uncore_hz);
    }
    World world(*cluster, {{0, 35}, {1, 35}});
    PingPongOptions opt;
    opt.bytes = 4;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster->engine().run();
    return median(pp.latencies());
  };
  double hi = run_lat(2.4e9);
  double lo = run_lat(1.2e9);
  EXPECT_GT(lo, hi);
  EXPECT_LT((lo - hi) / hi, 0.10);
}

TEST(Calibration, SendStatsAccumulate) {
  auto cluster = henri_cluster();
  World world(*cluster, {{0, -1}, {1, -1}});
  PingPongOptions opt;
  opt.bytes = 1 << 20;
  opt.iterations = 5;
  opt.warmup = 1;
  PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster->engine().run();
  const auto& stats = world.send_stats(0);
  EXPECT_EQ(stats.bytes, 6.0 * (1 << 20));
  EXPECT_GT(stats.sending_bw(), 1e9);
}

TEST(Calibration, MessageSizeSweepIsMonotoneInTime) {
  // One-way time must be non-decreasing with message size, and bandwidth
  // must approach the asymptote from below.
  auto cluster = henri_cluster();
  World world(*cluster, {{0, 35}, {1, 35}});
  double prev_lat = 0.0;
  int tag = 100;
  for (std::size_t bytes : {4u, 64u, 1024u, 16384u, 262144u, 4u << 20}) {
    PingPongOptions opt;
    opt.bytes = bytes;
    opt.iterations = 8;
    opt.warmup = 2;
    opt.tag = tag;
    tag += 10;
    PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster->engine().run();
    double lat = median(pp.latencies());
    EXPECT_GT(lat, prev_lat * 0.98) << bytes;
    prev_lat = lat;
  }
}

}  // namespace
}  // namespace cci::mpi
