// Cross-layer instrumentation, end to end: one small two-rank runtime
// ping-pong must leave spans from at least three layers (sim resource
// activity, MPI message lifecycle, runtime comm/poll) in the global
// tracer, and the registry must hold the headline counters.  The same
// run with observability disabled must record nothing.  Per-object
// metrics (resources, governors, NICs) bind only when a registry can read
// them: eagerly when it is on at construction, at first use otherwise.
// Campaign timelines get rows from every engine a point builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/fabric_lab.hpp"
#include "hw/frequency_governor.hpp"
#include "hw/machine.hpp"
#include "mpi/pingpong.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/apps.hpp"
#include "runtime/rt_pingpong.hpp"
#include "runtime/runtime.hpp"

namespace cci {
namespace {

void run_pingpong() {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine("henri");
  cfg.workers = 4;
  runtime::Runtime rt0(world, 0, cfg);
  runtime::Runtime rt1(world, 1, cfg);
  rt0.start_workers_idle();
  rt1.start_workers_idle();
  runtime::RtPingPongOptions opt;
  opt.bytes = 256 * 1024;  // rendezvous path: RTS/CTS handshake + DMA flow
  opt.iterations = 3;
  runtime::RtPingPong pp(rt0, rt1, opt);
  pp.start();
  cluster.engine().run(1.0);
  rt0.shutdown();  // flushes the poll-count integral
  rt1.shutdown();
}

TEST(ObsIntegration, TracingCapturesAtLeastThreeLayers) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  reg.tracer().set_enabled(true);

  run_pingpong();

  const obs::Tracer& tr = reg.tracer();
  EXPECT_GT(tr.span_count_on("sim.res."), 0u) << "no simulated-resource activity spans";
  EXPECT_GT(tr.span_count_on("mpi.rank"), 0u) << "no MPI message lifecycle spans";
  EXPECT_GT(tr.span_count_on("rt.rank"), 0u) << "no runtime spans";

  obs::Snapshot s = reg.snapshot();
  EXPECT_GT(s.value_of("sim.engine.events_dispatched"), 0.0);
  EXPECT_GT(s.value_of("sim.flow.resolves"), 0.0);
  EXPECT_GT(s.value_of("mpi.world.rndv_msgs"), 0.0);
  EXPECT_GT(s.value_of("mpi.world.bytes_sent"), 0.0);
  EXPECT_GT(s.value_of("runtime.worker.polls"), 0.0);

  reg.reset();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);
}

TEST(ObsIntegration, DisabledRunRecordsNothing) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);

  run_pingpong();

  EXPECT_TRUE(reg.tracer().spans().empty());
  EXPECT_TRUE(reg.tracer().counter_samples().empty());
  obs::Snapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(s.value_of("sim.engine.events_dispatched"), 0.0);
  EXPECT_DOUBLE_EQ(s.value_of("mpi.world.bytes_sent"), 0.0);
  EXPECT_DOUBLE_EQ(s.value_of("runtime.worker.polls"), 0.0);
}

TEST(ObsIntegration, IdenticalRunsProduceIdenticalSnapshots) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  run_pingpong();
  obs::Snapshot first = reg.snapshot();

  reg.reset();
  run_pingpong();
  obs::Snapshot second = reg.snapshot();

  ASSERT_EQ(first.entries.size(), second.entries.size());
  for (std::size_t i = 0; i < first.entries.size(); ++i) {
    EXPECT_EQ(first.entries[i].name, second.entries[i].name);
    if (first.entries[i].name.find("wall_us") != std::string::npos)
      continue;  // solver wall-time is host-clock noise by design
    if (first.entries[i].name.starts_with("host."))
      continue;  // host-side rows: the frame arena (host.pool.frames.*) is a
                 // thread-level cache that deliberately stays warm across
                 // engines, so its allocated/reused split depends on what
                 // already ran in this process.  Engine-owned pools
                 // (activity, wait_node) are fresh per run and stay under
                 // the exact comparison below.
    EXPECT_DOUBLE_EQ(first.entries[i].value, second.entries[i].value)
        << first.entries[i].name;
    EXPECT_EQ(first.entries[i].count, second.entries[i].count) << first.entries[i].name;
  }

  reg.reset();
  reg.set_enabled(false);
}

std::set<std::string> metric_names(const obs::Registry& reg) {
  std::set<std::string> names;
  for (const obs::Snapshot::Entry& e : reg.snapshot().entries) names.insert(e.name);
  return names;
}

/// One ring tenant over all 16 nodes of a 4x2x2 dragonfly.
core::Scenario dragonfly_ring(int iterations) {
  core::Scenario s;
  s.topology = net::Topology::dragonfly(4, 2, 2);
  core::JobSpec ring;
  ring.label = "ring";
  ring.pattern = core::TrafficPattern::kRing;
  ring.iterations = iterations;
  for (int n = 0; n < 16; ++n) ring.nodes.push_back(n);
  s.jobs = {ring};
  return s;
}

bool is_per_object(const std::string& name) {
  return name.starts_with("sim.resource.") || name.starts_with("hw.freq.") ||
         name.starts_with("net.link.") || name.ends_with("nic-dma.queue_depth");
}

/// Two-rank rendezvous ping-pong: loads the flow model's resources and
/// runs a DMA on both NICs.
void run_rendezvous_pingpong(net::Cluster& cluster, mpi::World& world) {
  mpi::PingPongOptions opt;
  opt.bytes = 1 << 20;
  opt.iterations = 2;
  opt.warmup = 0;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
}

TEST(ObsIntegration, DisabledRegistryGainsNoPerObjectMetrics) {
  auto& reg = obs::Registry::process();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);
  const std::set<std::string> before = metric_names(reg);
  {
    // 16 groups x 8 routers x 8 hosts: ~48k resources, 1024 governors and
    // NICs, none of which may reach a registry nobody reads.
    net::Cluster cluster({.topology = net::Topology::dragonfly(16, 8, 8), .nodes = 1024});
    mpi::World world(cluster, {{0, -1}, {1023, -1}});
    cluster.machine(0).governor().core_busy(3, hw::VectorClass::kAvx512);
    run_rendezvous_pingpong(cluster, world);
  }
  {
    // Shard workers install private registries, disabled like this one;
    // merge_obs must not carry their names over either.
    core::Scenario s;
    s.topology = net::Topology::dragonfly(4, 2, 2);
    core::JobSpec even, odd;
    even.label = "even";
    odd.label = "odd";
    even.pattern = odd.pattern = core::TrafficPattern::kRing;
    even.iterations = odd.iterations = 1;
    for (int n = 0; n < 16; ++n) (n % 2 == 0 ? even : odd).nodes.push_back(n);
    s.jobs = {even, odd};
    core::FabricLab lab(s);
    const core::FabricReport r = lab.run_sharded(4);
    ASSERT_EQ(r.shards, 4);
    ASSERT_GT(r.total_bytes, 0.0);
  }
  {
    // A serial fabric run samples every link at every delivery; its
    // per-link utilization histograms wait for a registry that is on.
    core::FabricLab lab(dragonfly_ring(/*iterations=*/1));
    const core::FabricReport r = lab.run();
    ASSERT_FALSE(r.links.empty());
    ASSERT_GT(r.total_bytes, 0.0);
  }
  for (const std::string& name : metric_names(reg)) {
    if (before.count(name) == 0) {
      EXPECT_FALSE(is_per_object(name)) << name;
    }
  }
}

TEST(ObsIntegration, FabricLinkHistogramsRecordEverySampleWhenTheRegistryIsOn) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Registry::ScopedThreadLocal scope(reg);
  core::FabricLab lab(dragonfly_ring(/*iterations=*/2));
  const core::FabricReport r = lab.run();
  ASSERT_FALSE(r.links.empty());
  // Every sample records every link, so the histograms agree on the count
  // and each one's maximum is its link's reported peak.
  const std::uint64_t samples =
      reg.histogram("net." + r.links.front().name + ".utilization").count();
  EXPECT_GT(samples, 0u);
  for (const core::LinkReport& link : r.links) {
    const obs::Histogram& h = reg.histogram("net." + link.name + ".utilization");
    EXPECT_EQ(h.count(), samples) << link.name;
    EXPECT_EQ(h.max(), link.peak) << link.name;
  }
  // With the registry off the peaks read only the links whose load changed
  // since the previous sample, and still reach every histogram's maximum.
  obs::Registry off;
  obs::Registry::ScopedThreadLocal off_scope(off);
  const core::FabricReport quiet = lab.run();
  ASSERT_EQ(quiet.links.size(), r.links.size());
  for (std::size_t li = 0; li < quiet.links.size(); ++li) {
    const obs::Histogram& h = reg.histogram("net." + r.links[li].name + ".utilization");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(quiet.links[li].peak),
              std::bit_cast<std::uint64_t>(h.max()))
        << quiet.links[li].name;
  }
  EXPECT_GT(quiet.link_reads, 0u);
  EXPECT_LT(quiet.link_reads, samples * quiet.links.size());
}

/// Build a two-node cluster with `reg` off or on, turn it on, then run
/// every per-object owner once: a busy core moves each node's governor,
/// and a rendezvous ping-pong loads resources and both NICs.
struct LateRun {
  std::set<std::string> names;
  std::optional<double> core_hz;   ///< hw.freq.node0.core3_hz
  std::optional<double> dma_work;  ///< sim.resource.node0.nic-dma.work_units
  double governor_hz = 0.0;        ///< node0 core3 as the governor reports it
};

LateRun run_every_owner(bool enabled_at_construction) {
  obs::Registry reg;
  reg.set_enabled(enabled_at_construction);
  obs::Registry::ScopedThreadLocal scope(reg);
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  reg.set_enabled(true);
  for (int node = 0; node < cluster.node_count(); ++node)
    cluster.machine(node).governor().core_busy(3, hw::VectorClass::kAvx512);
  run_rendezvous_pingpong(cluster, world);

  const obs::Snapshot snap = reg.snapshot();
  LateRun out;
  out.names = metric_names(reg);
  out.core_hz = snap.try_value_of("hw.freq.node0.core3_hz");
  out.dma_work =
      snap.try_value_of("sim.resource." + cluster.nic(0).dma_engine()->name() + ".work_units");
  out.governor_hz = cluster.machine(0).governor().core_freq(3);
  return out;
}

TEST(ObsIntegration, RegistryEnabledAfterConstructionBindsEveryOwner) {
  const LateRun late = run_every_owner(/*enabled_at_construction=*/false);
  ASSERT_TRUE(late.core_hz.has_value()) << "governor transition did not bind";
  EXPECT_GT(late.governor_hz, hw::MachineConfig::henri().core_freq_min_hz);
  EXPECT_DOUBLE_EQ(*late.core_hz, late.governor_hz);
  ASSERT_TRUE(late.dma_work.has_value()) << "loaded resource did not bind";
  EXPECT_GT(*late.dma_work, 0.0);

  // Late binding registers exactly what eager registration would have.
  const LateRun eager = run_every_owner(/*enabled_at_construction=*/true);
  EXPECT_EQ(late.names, eager.names);
  std::size_t per_object = 0;
  for (const std::string& name : late.names) per_object += is_per_object(name) ? 1 : 0;
  EXPECT_GT(per_object, 0u);
}

// ---- campaign timelines -------------------------------------------------------
// Every engine a campaign point builds samples into the point's timeline,
// whatever drives it: the fabric lab, the runtime apps, or several labs in
// one point.

/// A timeline-enabled run of `c` at `jobs` workers.
core::CampaignRun run_with_timeline(const core::Campaign& c, int jobs) {
  core::CampaignOptions o;
  o.jobs = jobs;
  o.timeline_period = 1e-4;
  return core::CampaignEngine(o).run(c);
}

/// The run's tidy timeline CSV, checked to hold rows below its header.
std::string timeline_csv(const core::Campaign& c, int jobs) {
  const core::CampaignRun run = run_with_timeline(c, jobs);
  std::ostringstream os;
  run.write_timeline_csv(os, c.name());
  const std::string csv = os.str();
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 1) << c.name() << " at jobs " << jobs;
  return csv;
}

TEST(CampaignTimeline, FabricLabRunPointsHaveRowsIdenticalAtAnyJobs) {
  core::SweepSpec spec(dragonfly_ring(/*iterations=*/1));
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<int>(
          "iterations", {1, 2, 3},
          [](core::Scenario& s, const int& n) { s.jobs[0].iterations = n; },
          [](const int& n) { return std::to_string(n); });
  core::Campaign c("fabric_run", std::move(spec));
  c.column("elapsed_ms", 3, core::Campaign::Metric{})
      .evaluator("fabric_run.timeline_test.v1", [](const core::SweepPoint& p) {
        core::FabricLab lab(p.scenario);
        return std::vector<double>{lab.run().elapsed * 1e3};
      });
  EXPECT_EQ(timeline_csv(c, 1), timeline_csv(c, 8));
}

TEST(CampaignTimeline, RuntimeAppPointsHaveRowsIdenticalAtAnyJobs) {
  core::SweepSpec spec{core::Scenario{}};
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<int>(
          "ranks", {2, 4}, [](core::Scenario&, const int&) {},
          [](const int& r) { return std::to_string(r); },
          [](const int& r) { return static_cast<double>(r); });
  core::Campaign c("cg_app", std::move(spec));
  c.column("makespan_ms", 3, core::Campaign::Metric{})
      .evaluator("cg_app.timeline_test.v1", [](const core::SweepPoint& p) {
        runtime::CgAppOptions cg;
        cg.n = 4096;
        cg.iterations = 1;
        cg.workers = 4;
        cg.ranks = static_cast<int>(p.numeric[0]);
        const runtime::AppResult r = runtime::run_cg_app(
            hw::MachineConfig::henri(), net::NetworkParams::ib_edr(),
            runtime::RuntimeConfig::for_machine("henri"), cg);
        return std::vector<double>{r.makespan * 1e3};
      });
  EXPECT_EQ(timeline_csv(c, 1), timeline_csv(c, 8));
}

/// (time, value) of every `sim.engine.events_dispatched` row, in order.
std::vector<std::pair<double, double>> event_rows(const obs::TimelineStore& store) {
  std::vector<std::pair<double, double>> rows;
  for (std::size_t i = 0; i < store.size(); ++i)
    if (store.series_names()[store.row(i).series] == "sim.engine.events_dispatched")
      rows.emplace_back(store.row(i).time, store.row(i).value);
  return rows;
}

TEST(CampaignTimeline, SecondEngineOfAPointCountsOnlyItsOwnEvents) {
  // Point 0 runs tenant "a" alone, point 1 runs both tenants, and point 2
  // runs both in turn on one lab, as job_interference's cells do: its
  // timeline is point 0's segment followed by point 1's, each counted from
  // its own engine's construction.
  core::Scenario base = dragonfly_ring(/*iterations=*/2);
  base.jobs[0].label = "a";
  base.jobs[0].nodes.resize(8);
  core::JobSpec b = base.jobs[0];
  b.label = "b";
  for (int& n : b.nodes) n += 8;
  base.jobs.push_back(b);
  core::SweepSpec spec(base);
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<int>(
          "runs", {0, 1, 2}, [](core::Scenario&, const int&) {},
          [](const int& m) { return std::to_string(m); },
          [](const int& m) { return static_cast<double>(m); });
  core::Campaign c("two_engines", std::move(spec));
  c.column("elapsed_ms", 3, core::Campaign::Metric{})
      .evaluator("two_engines.timeline_test.v1", [](const core::SweepPoint& p) {
        core::FabricLab lab(p.scenario);
        const int mode = static_cast<int>(p.numeric[0]);
        double elapsed = 0.0;
        if (mode != 1) elapsed += lab.run("a").elapsed;
        if (mode != 0) elapsed += lab.run().elapsed;
        return std::vector<double>{elapsed * 1e3};
      });
  const core::CampaignRun run = run_with_timeline(c, 1);
  ASSERT_EQ(run.timelines.size(), 3u);
  const auto alone = event_rows(run.timelines[0]);
  const auto both = event_rows(run.timelines[1]);
  ASSERT_FALSE(alone.empty());
  ASSERT_FALSE(both.empty());
  auto want = alone;
  want.insert(want.end(), both.begin(), both.end());
  EXPECT_EQ(event_rows(run.timelines[2]), want);
}

}  // namespace
}  // namespace cci
