// Fault injection + DVFS transition latency.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/frequency_governor.hpp"
#include "mpi/pingpong.hpp"
#include "net/faults.hpp"
#include "trace/stats.hpp"

namespace cci::net {
namespace {

using hw::MachineConfig;

double bw_with(const std::function<void(Cluster&, FaultInjector&)>& inject) {
  Cluster cluster(ClusterSpec{});
  FaultInjector faults(cluster);
  inject(cluster, faults);
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  mpi::PingPongOptions opt;
  opt.bytes = 64 << 20;
  opt.iterations = 8;
  opt.warmup = 1;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  return trace::Stats::of(pp.bandwidths()).median;
}

TEST(Faults, CrossbarDegradationBecomesTheBottleneck) {
  double healthy = bw_with([](Cluster&, FaultInjector&) {});
  double degraded = bw_with([](Cluster&, FaultInjector& f) { f.degrade_wire(0.0, 0.25); });
  // The 2-node switch core carries 2x the port rate; at 25% it caps flows
  // at 0.25 * 2 * 12.08 GB/s, below the NIC's 10.1 GB/s.
  EXPECT_NEAR(degraded, 0.25 * 2 * 12.08e9, 0.4e9);
  EXPECT_GT(healthy, 1.5 * degraded);
}

TEST(Faults, NicDegradationRecovers) {
  // Degrade early, recover mid-run: the sample spread must straddle both
  // regimes (deciles far apart), and the median sit between them.
  Cluster cluster(ClusterSpec{});
  FaultInjector faults(cluster);
  faults.degrade_nic(0, 0.0, 0.3, /*recover_at=*/0.08);
  faults.degrade_nic(1, 0.0, 0.3, /*recover_at=*/0.08);
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  mpi::PingPongOptions opt;
  opt.bytes = 64 << 20;
  opt.iterations = 16;
  opt.warmup = 0;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  auto stats = trace::Stats::of(pp.bandwidths());
  // Early samples ran on the degraded NIC (~3 GB/s), late ones at full
  // speed: the spread must straddle both regimes.
  EXPECT_GT(stats.max, 2.0 * stats.min);
  EXPECT_LT(stats.min, 5e9);
  EXPECT_GT(stats.max, 9e9);
}

TEST(Faults, MemCtrlFaultHitsOnlyItsNode) {
  Cluster cluster(ClusterSpec{});
  FaultInjector faults(cluster);
  faults.degrade_mem_ctrl(0, 0, 0.0, 0.1);
  cluster.engine().run(0.001);  // deliver the scheduled injection
  EXPECT_NEAR(cluster.machine(0).mem_ctrl(0)->capacity(), 0.1 * 0.75 * 45e9, 1e9);
  EXPECT_GT(cluster.machine(1).mem_ctrl(0)->capacity(), 30e9);
}

TEST(Faults, ThrottledNodeSlowsSmallMessages) {
  double healthy = bw_with([](Cluster&, FaultInjector&) {});
  (void)healthy;
  // Latency version: throttling the sender's clocks stretches o.
  auto latency_with = [](bool throttle) {
    Cluster cluster(ClusterSpec{});
    FaultInjector faults(cluster);
    if (throttle) {
      faults.throttle_node(0, 0.0);
      faults.throttle_node(1, 0.0);
    }
    mpi::World world(cluster, {{0, -1}, {1, -1}});
    mpi::PingPongOptions opt;
    opt.bytes = 4;
    mpi::PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().run();
    return trace::Stats::of(pp.latencies()).median;
  };
  EXPECT_GT(latency_with(true), 1.5 * latency_with(false));
}

TEST(Faults, RestoreIsDeltaTrackedNotFactorScaled) {
  // Discriminator for the restore bug: an *absolute* capacity write lands
  // between inject and restore (the uncore refresh does exactly this).  A
  // `capacity / factor` restore would scale the external write; the delta
  // restore must add back exactly what the fault removed.
  Cluster cluster(ClusterSpec{});
  sim::Resource* wire = cluster.fabric().find("switch");
  const double c0 = wire->capacity();
  FaultInjector faults(cluster);
  faults.degrade_wire(/*at=*/1.0, /*factor=*/0.5, /*recover_at=*/3.0);
  cluster.engine().call_at(2.0, [&] { wire->set_capacity(0.25 * c0); });
  cluster.engine().run();
  // Fault removed 0.5*c0; external write set 0.25*c0; restore adds 0.5*c0.
  EXPECT_NEAR(wire->capacity(), 0.75 * c0, 1e-6 * c0);
}

TEST(Faults, OverlappingWindowsRestoreExactly) {
  // Two nested degradations of the same resource: each restore returns the
  // delta it took, so after both recoveries the capacity is bit-exact.
  Cluster cluster(ClusterSpec{});
  sim::Resource* wire = cluster.fabric().find("switch");
  const double c0 = wire->capacity();
  FaultInjector faults(cluster);
  faults.degrade_wire(1.0, 0.5, /*recover_at=*/4.0);
  faults.degrade_wire(2.0, 0.4, /*recover_at=*/3.0);  // nested inside
  cluster.engine().run(2.5);
  EXPECT_NEAR(wire->capacity(), 0.5 * 0.4 * c0, 1e-6 * c0);
  cluster.engine().run();
  EXPECT_DOUBLE_EQ(wire->capacity(), c0);
}

TEST(Faults, RestoreClocksReinstatesPriorPolicy) {
  // kPerformance before the throttle must come back as kPerformance, not
  // the historical hardcoded kOndemand.
  Cluster cluster(ClusterSpec{});
  auto& gov = cluster.machine(0).governor();
  gov.set_policy(hw::CpuPolicy::kPerformance);
  FaultInjector faults(cluster);
  faults.throttle_node(0, /*at=*/0.001, /*recover_at=*/0.002);
  cluster.engine().run();
  EXPECT_EQ(gov.policy(), hw::CpuPolicy::kPerformance);
}

TEST(Faults, RestoreClocksReinstatesUserspacePin) {
  // A userspace pin (the paper's fixed-frequency experiments) must return
  // to the pinned frequency, not just the policy enum.
  Cluster cluster(ClusterSpec{});
  auto& gov = cluster.machine(0).governor();
  gov.pin_core_freq(2.3e9);
  FaultInjector faults(cluster);
  faults.throttle_node(0, /*at=*/0.001, /*recover_at=*/0.002);
  cluster.engine().run(0.0015);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), MachineConfig::henri().core_freq_min_hz);
  cluster.engine().run();
  EXPECT_EQ(gov.policy(), hw::CpuPolicy::kUserspace);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 2.3e9);
}

TEST(FaultPlans, GenerationIsDeterministic) {
  FaultScheduleConfig cfg;
  cfg.seed = 1234;
  cfg.horizon = 2.0;
  FaultPlan a = generate_fault_plan(cfg);
  FaultPlan b = generate_fault_plan(cfg);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  cfg.seed = 1235;
  EXPECT_FALSE(a == generate_fault_plan(cfg));
}

TEST(FaultPlans, SerializeParseRoundTripsBitForBit) {
  FaultScheduleConfig cfg;
  cfg.seed = 7;
  cfg.horizon = 1.0;
  cfg.interarrival = FaultScheduleConfig::Dist::kWeibull;
  FaultPlan plan = generate_fault_plan(cfg);
  ASSERT_FALSE(plan.empty());
  const std::string text = FaultPlan::parse(plan.serialize()).serialize();
  EXPECT_EQ(plan, FaultPlan::parse(text));
  EXPECT_EQ(text, plan.serialize());
  EXPECT_THROW(FaultPlan::parse("not-a-kind at=0"), std::runtime_error);
}

TEST(FaultPlans, GeneratedPlansRoundTripAndEveryBadFieldThrows) {
  // Seeded generated input: random schedule configs must round-trip bit for
  // bit, and one bad field substituted into any valid line must be refused
  // by the parser (runtime_error) and by the injector (invalid_argument).
  using Kind = FaultEvent::Kind;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Mutation {
    std::string what;
    std::function<bool(FaultEvent&)> apply;  ///< false: not applicable
  };
  std::vector<Mutation> mutations;
  auto assign = [&mutations](const char* field, double FaultEvent::*member, double v) {
    mutations.push_back({std::string(field) + "=" + std::to_string(v),
                         [member, v](FaultEvent& e) {
                           e.*member = v;
                           return true;
                         }});
  };
  for (double v : {kNan, kInf, -kInf}) {
    assign("at", &FaultEvent::at, v);
    assign("until", &FaultEvent::until, v);
    assign("value", &FaultEvent::value, v);
  }
  assign("at", &FaultEvent::at, -1e-3);
  mutations.push_back({"until inside [0, at)", [](FaultEvent& e) {
                         if (!(e.at > 0.0)) return false;
                         e.until = e.at / 2.0;
                         return true;
                       }});
  for (double v : {-0.25, 1.5})
    mutations.push_back({"value=" + std::to_string(v), [v](FaultEvent& e) {
                           if (e.kind == Kind::kNicBlackout || e.kind == Kind::kNodeThrottle)
                             return false;
                           e.value = v;
                           return true;
                         }});

  sim::Rng rng(20210816);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 24; ++trial) {
    FaultScheduleConfig cfg;
    cfg.seed = rng.next_u64();
    cfg.horizon = rng.uniform(0.05, 0.5);
    cfg.interarrival = trial % 2 == 0 ? FaultScheduleConfig::Dist::kExponential
                                      : FaultScheduleConfig::Dist::kWeibull;
    cfg.nodes = 2;
    const FaultPlan plan = generate_fault_plan(cfg);
    const std::string text = plan.serialize();
    EXPECT_EQ(FaultPlan::parse(text), plan) << "seed " << cfg.seed;
    EXPECT_EQ(FaultPlan::parse(text).serialize(), text) << "seed " << cfg.seed;

    // The generator never emits memory-controller faults; cover them too.
    std::vector<FaultEvent> events = plan.events();
    events.push_back({Kind::kMemCtrlDegrade, rng.uniform(0.0, 0.1), 0.2, 1, 1, 0.5});
    Cluster cluster(ClusterSpec{});
    FaultInjector injector(cluster);
    for (const FaultEvent& good : events) {
      for (const Mutation& m : mutations) {
        FaultEvent bad = good;
        if (!m.apply(bad)) continue;
        FaultPlan one;
        one.add(bad);
        const std::string line = one.serialize();
        EXPECT_THROW(FaultPlan::parse(line), std::runtime_error) << m.what << ": " << line;
        EXPECT_THROW(injector.apply(one), std::invalid_argument) << m.what << ": " << line;
        ++rejected;
      }
    }
    EXPECT_TRUE(injector.plan().empty()) << "a refused event was recorded";
  }
  EXPECT_GT(rejected, 100u);
}

TEST(FaultPlans, ParseAcceptsBoundaryValuesAndRefusesGarbage) {
  // Valid edges: no recovery, recovery at onset, full outage, certain loss.
  const std::string ok =
      "wire-degrade at=0 until=-1 node=-1 numa=0 value=0\n"
      "nic-degrade at=0.5 until=0.5 node=1 numa=0 value=1\n"
      "loss-window at=0 until=1 node=-1 numa=0 value=1\n"
      "node-throttle at=0 until=1 node=0 numa=0 value=7\n";  // value unread
  EXPECT_EQ(FaultPlan::parse(ok).size(), 4u);
  for (const char* bad : {
           "wire-degrade at=0 until=-1 node=-1 numa=0 value=-1",
           "wire-degrade at=1e999 until=-1 node=-1 numa=0 value=0.5",
           "loss-window at=0 until=1 node=-1 numa=0 value=nan",
           "corrupt-window at=0 until=1 node=-1 numa=0 value=inf",
           "nic-blackout at=-0.5 until=1 node=0 numa=0 value=1",
           "nic-degrade at=0.2 until=0.1 node=0 numa=0 value=0.5",
           "wire-degrade at=0 until=-1 node=-1 numa=0 value=0.5x",
       }) {
    EXPECT_THROW(FaultPlan::parse(bad), std::runtime_error) << bad;
    try {
      (void)FaultPlan::parse(bad);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
    }
  }
}

TEST(FaultPlans, InjectorRecordsWhatItApplies) {
  // Replay contract: applying a plan records a plan equal to the input.
  FaultScheduleConfig cfg;
  cfg.seed = 99;
  cfg.horizon = 0.5;
  FaultPlan plan = generate_fault_plan(cfg);
  ASSERT_FALSE(plan.empty());
  Cluster cluster(ClusterSpec{});
  FaultInjector faults(cluster);
  faults.apply(plan);
  EXPECT_EQ(faults.plan(), plan);
  cluster.engine().run();  // scheduled events must also be consumable
}

TEST(FaultState, LossWindowsStack) {
  FaultState fs;
  EXPECT_DOUBLE_EQ(fs.loss_prob(), 0.0);
  fs.push_loss(0.5);
  fs.push_loss(0.5);
  EXPECT_DOUBLE_EQ(fs.loss_prob(), 0.75);  // 1 - (1-p1)(1-p2)
  fs.pop_loss(0.5);
  EXPECT_DOUBLE_EQ(fs.loss_prob(), 0.5);
  fs.pop_loss(0.5);
  EXPECT_DOUBLE_EQ(fs.loss_prob(), 0.0);
  // Quiet state draws must not consume RNG (jitter-stream neutrality).
  sim::Rng rng(1);
  sim::Rng ref(1);
  EXPECT_FALSE(fs.draw_loss(rng));
  EXPECT_FALSE(fs.draw_corrupt(rng));
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

TEST(FaultState, BlackoutsNestPerNode) {
  FaultState fs;
  int onsets = 0;
  fs.on_blackout([&](int) { ++onsets; });
  fs.begin_blackout(1);
  fs.begin_blackout(1);
  EXPECT_TRUE(fs.blacked_out(1));
  EXPECT_FALSE(fs.blacked_out(0));
  EXPECT_EQ(onsets, 1);  // only the 0 -> 1 transition notifies
  fs.end_blackout(1);
  EXPECT_TRUE(fs.blacked_out(1));
  fs.end_blackout(1);
  EXPECT_FALSE(fs.blacked_out(1));
}

TEST(DvfsRamp, TransitionLatencyDelaysTurbo) {
  sim::Engine engine;
  sim::FlowModel model(engine);
  MachineConfig cfg = MachineConfig::henri();
  cfg.dvfs_transition_latency = 50e-6;
  hw::Machine machine(model, cfg);
  auto& gov = machine.governor();
  engine.run(0.0);
  engine.call_at(1e-3, [&] { gov.core_busy(0, hw::VectorClass::kScalar); });
  engine.run(1e-3 + 10e-6);  // 10 us after the decision: still ramping
  EXPECT_DOUBLE_EQ(gov.core_freq(0), cfg.core_freq_min_hz);
  engine.run(1e-3 + 60e-6);  // past the 50 us ramp
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 3.7e9);
}

TEST(DvfsRamp, SupersededTransitionNeverLands) {
  sim::Engine engine;
  sim::FlowModel model(engine);
  MachineConfig cfg = MachineConfig::henri();
  cfg.dvfs_transition_latency = 50e-6;
  hw::Machine machine(model, cfg);
  auto& gov = machine.governor();
  engine.call_at(1e-3, [&] { gov.core_busy(0, hw::VectorClass::kScalar); });
  engine.call_at(1e-3 + 20e-6, [&] { gov.core_idle(0); });  // cancel before ramp ends
  engine.run();
  EXPECT_DOUBLE_EQ(gov.core_freq(0), cfg.core_freq_min_hz);
}

}  // namespace
}  // namespace cci::net
