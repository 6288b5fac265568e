// Reliable transport under injected faults: retransmit, corruption
// detection, blackout recovery, bounded timeouts, deterministic replay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "net/faults.hpp"
#include "obs/metrics.hpp"
#include "mpi/world.hpp"

namespace cci::mpi {
namespace {

using net::Cluster;
using net::ClusterSpec;
using net::FaultInjector;

constexpr std::size_t kEagerBytes = 4 * 1024;     // below every eager threshold
constexpr std::size_t kRndvBytes = 1 << 20;       // rendezvous everywhere

struct Rig {
  Rig() : cluster(ClusterSpec{}),
          world(cluster, {{0, -1}, {1, -1}}) {
    obs::Registry::global().set_enabled(true);
    obs::Registry::global().reset();
  }
  ~Rig() { obs::Registry::global().set_enabled(false); }

  /// Post `n` send/recv pairs of `bytes` each on distinct tags.
  void post_pairs(int n, std::size_t bytes, int tag0) {
    for (int i = 0; i < n; ++i) {
      recvs.push_back(world.irecv(1, 0, tag0 + i, MsgView{bytes, 0, 0}));
      sends.push_back(world.isend(0, 1, tag0 + i, MsgView{bytes, 0, 0}));
    }
  }

  static double counter(const std::string& name) {
    return obs::Registry::global().counter(name).value();
  }

  Cluster cluster;
  World world;
  std::vector<RequestPtr> sends, recvs;
};

TEST(Reliability, ForcedReliablePathDeliversEverythingOk) {
  Rig rig;
  rig.cluster.faults().force_reliable(true);
  rig.post_pairs(8, kEagerBytes, 100);
  rig.post_pairs(2, kRndvBytes, 200);
  rig.cluster.engine().run();
  for (const auto& r : rig.sends) EXPECT_TRUE(r->ok());
  for (const auto& r : rig.recvs) EXPECT_TRUE(r->ok());
  // No faults: the reliable protocol runs but never retries or times out.
  EXPECT_EQ(Rig::counter("mpi.retransmits"), 0.0);
  EXPECT_EQ(Rig::counter("mpi.timeouts"), 0.0);
  EXPECT_EQ(Rig::counter("net.messages_lost"), 0.0);
}

TEST(Reliability, LossyWireRetransmitsUntilDelivered) {
  Rig rig;
  FaultInjector faults(rig.cluster);
  faults.loss_window(0.2, 0.0);  // 20% loss, forever
  rig.post_pairs(16, kEagerBytes, 100);
  rig.post_pairs(4, kRndvBytes, 200);
  rig.cluster.engine().run();
  // Every message is eventually delivered (retry budget is ample at p=0.2).
  for (const auto& r : rig.sends) EXPECT_TRUE(r->ok());
  for (const auto& r : rig.recvs) EXPECT_TRUE(r->ok());
  EXPECT_GT(Rig::counter("net.messages_lost"), 0.0);
  EXPECT_GT(Rig::counter("mpi.retransmits"), 0.0);
  EXPECT_EQ(Rig::counter("mpi.timeouts"), 0.0);
}

TEST(Reliability, CorruptionIsDetectedAndRecovered) {
  Rig rig;
  FaultInjector faults(rig.cluster);
  faults.corrupt_window(0.4, 0.0);
  rig.post_pairs(8, kEagerBytes, 100);
  rig.post_pairs(2, kRndvBytes, 200);
  rig.cluster.engine().run();
  for (const auto& r : rig.sends) EXPECT_TRUE(r->ok());
  for (const auto& r : rig.recvs) EXPECT_TRUE(r->ok());
  EXPECT_GT(Rig::counter("net.messages_corrupted"), 0.0);
  EXPECT_GT(Rig::counter("mpi.retransmits"), 0.0);
}

TEST(Reliability, TotalLossTimesOutInsteadOfHanging) {
  Rig rig;
  FaultInjector faults(rig.cluster);
  faults.loss_window(1.0, 0.0);  // nothing ever gets through
  rig.post_pairs(1, kEagerBytes, 100);
  rig.post_pairs(1, kRndvBytes, 200);
  rig.cluster.engine().run();  // must drain, not hang
  for (const auto& r : rig.sends) {
    EXPECT_TRUE(r->done().is_set());
    EXPECT_EQ(r->status(), MpiStatus::kTimedOut);
  }
  for (const auto& r : rig.recvs) {
    EXPECT_TRUE(r->done().is_set());
    EXPECT_FALSE(r->ok());
  }
  EXPECT_GE(Rig::counter("mpi.timeouts"), 2.0);
}

TEST(Reliability, NicBlackoutCancelsDmaAndRecovers) {
  Rig rig;
  FaultInjector faults(rig.cluster);
  // Blackout opens mid-rendezvous: the in-flight DMA flow is cancelled,
  // the transfer retries after the NIC comes back.
  faults.blackout_nic(0, /*at=*/0.001, /*until=*/0.003);
  rig.post_pairs(1, 64u << 20, 300);  // ~6 ms transfer, spans the blackout
  rig.cluster.engine().run();
  for (const auto& r : rig.sends) EXPECT_TRUE(r->ok());
  for (const auto& r : rig.recvs) EXPECT_TRUE(r->ok());
  EXPECT_GT(Rig::counter("mpi.retransmits"), 0.0);
  EXPECT_GT(rig.cluster.engine().now(), 0.003);  // finished after the outage
}

TEST(Reliability, SeededScheduleReplaysBitIdentically) {
  std::uint64_t seed = 42;
  if (const char* env = std::getenv("CCI_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  auto run_once = [seed] {
    obs::Registry::global().reset();
    Rig rig;
    rig.cluster.faults().force_reliable(true);
    net::FaultScheduleConfig cfg;
    cfg.seed = seed;
    cfg.horizon = 0.02;
    cfg.mean_interarrival = 0.004;
    net::FaultPlan plan = net::generate_fault_plan(cfg);
    FaultInjector faults(rig.cluster);
    faults.apply(plan);
    // Traffic spread over the fault horizon so the windows actually matter.
    for (int i = 0; i < 10; ++i) {
      rig.cluster.engine().call_at(i * 0.002, [&rig, i] {
        rig.recvs.push_back(rig.world.irecv(1, 0, 400 + i, MsgView{kEagerBytes, 0, 0}));
        rig.sends.push_back(rig.world.isend(0, 1, 400 + i, MsgView{kEagerBytes, 0, 0}));
      });
    }
    rig.cluster.engine().run();
    // The hard liveness guarantee: every request terminates.
    for (const auto& r : rig.sends) EXPECT_TRUE(r->done().is_set());
    for (const auto& r : rig.recvs) EXPECT_TRUE(r->done().is_set());
    return std::make_tuple(plan.serialize(), Rig::counter("mpi.retransmits"),
                           Rig::counter("mpi.timeouts"), Rig::counter("net.messages_lost"),
                           Rig::counter("net.messages_corrupted"),
                           rig.cluster.engine().now());
  };

  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cci::mpi
