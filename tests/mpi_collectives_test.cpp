// Collectives over the mini-MPI: completion, scaling shape, barriers.
#include <gtest/gtest.h>

#include <memory>

#include "mpi/collectives.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;

struct CollRig {
  explicit CollRig(int nodes)
      : cluster({.nodes = nodes}) {
    std::vector<RankConfig> ranks;
    for (int n = 0; n < nodes; ++n) ranks.push_back({n, -1});
    world = std::make_unique<World>(cluster, ranks);
  }
  /// Run one collective on all ranks; returns completion time.
  template <typename Launch>
  double run_all(Launch&& launch) {
    std::vector<std::unique_ptr<sim::OneShotEvent>> done;
    for (int r = 0; r < world->size(); ++r) {
      done.push_back(std::make_unique<sim::OneShotEvent>(cluster.engine()));
      cluster.engine().spawn(launch(r, done.back().get()));
    }
    cluster.engine().run();
    for (auto& d : done) EXPECT_TRUE(d->is_set());
    return cluster.engine().now();
  }
  Cluster cluster;
  std::unique_ptr<World> world;
};

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BcastCompletesOnAllRanks) {
  CollRig rig(GetParam());
  Coll coll(*rig.world, 70000);
  rig.run_all([&](int r, sim::OneShotEvent* d) {
    return coll.bcast(r, 0, MsgView{64 * 1024, 0, 0}, d);
  });
}

TEST_P(CollectiveSizes, BcastFromNonZeroRoot) {
  CollRig rig(GetParam());
  Coll coll(*rig.world, 71000);
  int root = GetParam() - 1;
  rig.run_all([&](int r, sim::OneShotEvent* d) {
    return coll.bcast(r, root, MsgView{4096, 0, 0}, d);
  });
}

TEST_P(CollectiveSizes, AllgatherCompletes) {
  CollRig rig(GetParam());
  Coll coll(*rig.world, 72000);
  rig.run_all([&](int r, sim::OneShotEvent* d) {
    return coll.allgather(r, MsgView{8192, 0, 0}, d);
  });
}

TEST_P(CollectiveSizes, AllreduceCompletes) {
  CollRig rig(GetParam());
  Coll coll(*rig.world, 73000);
  rig.run_all([&](int r, sim::OneShotEvent* d) {
    return coll.allreduce(r, MsgView{4096, 0, 0}, d);
  });
}

TEST_P(CollectiveSizes, BarrierCompletes) {
  CollRig rig(GetParam());
  Coll coll(*rig.world, 74000);
  rig.run_all([&](int r, sim::OneShotEvent* d) { return coll.barrier(r, d); });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveSizes, ::testing::Values(2, 3, 4, 5, 8));

TEST(Collectives, BcastScalesLogarithmically) {
  // Binomial tree: time grows ~log2(P), far below linear.
  auto time_for = [](int nodes) {
    CollRig rig(nodes);
    Coll coll(*rig.world, 75000);
    return rig.run_all([&](int r, sim::OneShotEvent* d) {
      return coll.bcast(r, 0, MsgView{4, 0, 0}, d);
    });
  };
  double t2 = time_for(2);
  double t8 = time_for(8);
  EXPECT_LT(t8, 5.0 * t2);  // log2(8)=3 rounds vs 1, plus pipeline effects
  EXPECT_GT(t8, t2);
}

TEST(Collectives, RingAllgatherTimeGrowsLinearly) {
  auto time_for = [](int nodes) {
    CollRig rig(nodes);
    Coll coll(*rig.world, 76000);
    return rig.run_all([&](int r, sim::OneShotEvent* d) {
      return coll.allgather(r, MsgView{1 << 20, 0, 0}, d);
    });
  };
  double t2 = time_for(2);
  double t6 = time_for(6);
  // 5 ring steps vs 1: within a factor ~2 of the step ratio (wire sharing).
  EXPECT_GT(t6 / t2, 2.5);
}

}  // namespace
}  // namespace cci::mpi
