// FabricLab: multi-tenant traffic over topology fabrics — tenant reports,
// victim/aggressor slowdowns, adaptive-routing relief, and the campaign
// determinism contract (threads, shards, schema-v3 cache keys).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/fabric_lab.hpp"
#include "core/interference_lab.hpp"
#include "net/cluster.hpp"
#include "sim/maxmin.hpp"
#include "sim/rng.hpp"

namespace cci::core {
namespace {

JobSpec job(std::string label, std::vector<int> nodes) {
  JobSpec j;
  j.label = std::move(label);
  j.nodes = std::move(nodes);
  j.message_bytes = std::size_t{4} << 20;  // rendezvous: traffic on-fabric
  j.iterations = 3;
  return j;
}

/// Two tenants whose pair streams share the leaf0 -> leaf1 minimal spine
/// of an oversubscribed fat-tree: the canonical victim/aggressor clash.
Scenario contended_fat_tree() {
  Scenario s;
  s.topology = net::Topology::fat_tree(4, /*oversubscription=*/0.5);
  s.jobs = {job("victim", {0, 2}), job("aggressor", {1, 3})};
  return s;
}

TEST(FabricLab, EmptyJobListRunsTheDefaultTwoNodePair) {
  Scenario s;  // single switch, no jobs
  FabricLab lab(s);
  FabricReport r = lab.run();
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].label, "job");
  EXPECT_EQ(r.tenants[0].bytes, 4.0 * (1 << 20));  // default 4 x 1 MB
  EXPECT_GT(r.tenants[0].finish, 0.0);
  EXPECT_GT(r.aggregate_bw, 0.0);
  EXPECT_EQ(r.elapsed, r.tenants[0].finish);
  // Single switch has no inter-switch links and records no routes.
  EXPECT_TRUE(r.links.empty());
  EXPECT_EQ(r.routes, 0u);
  EXPECT_EQ(r.reroutes, 0u);
}

/// Runs one invalid tenant through run() and run_sharded(1) on `topology`:
/// both must throw std::invalid_argument naming the tenant's label and
/// `field`.
void expect_rejected(JobSpec bad, const std::string& field,
                     net::Topology topology = net::Topology::single_switch()) {
  Scenario s;
  s.topology = std::move(topology);
  s.jobs = {std::move(bad)};
  FabricLab lab(s);
  for (const bool sharded : {false, true}) {
    std::string what;
    try {
      if (sharded)
        lab.run_sharded(1);
      else
        lab.run();
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    const char* path = sharded ? "run_sharded" : "run";
    EXPECT_NE(what.find("'bad-tenant'"), std::string::npos) << path << ": " << what;
    EXPECT_NE(what.find(field), std::string::npos) << path << ": " << what;
  }
}

TEST(FabricLab, RejectsIterationsBelowOne) {
  for (const int n : {0, -1, -7}) {
    JobSpec j = job("bad-tenant", {0, 1});
    j.iterations = n;
    expect_rejected(j, "iterations");
  }
}

TEST(FabricLab, RejectsANonFiniteOrNonPositiveOfferedLoad) {
  for (const double load : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    JobSpec j = job("bad-tenant", {0, 1});
    j.offered_load = load;
    expect_rejected(j, "offered_load");
  }
}

TEST(FabricLab, RejectsAZeroMessageSize) {
  JobSpec j = job("bad-tenant", {0, 1});
  j.message_bytes = 0;
  expect_rejected(j, "message_bytes");
}

TEST(FabricLab, RejectsANodeIndexBeyondTheTopology) {
  // fat_tree(4) attaches 8 hosts: nodes 0..7.
  expect_rejected(job("bad-tenant", {0, 8}), "nodes", net::Topology::fat_tree(4));
}

TEST(FabricLab, RejectsAnEmptyNodeList) {
  expect_rejected(job("bad-tenant", {}), "nodes");
}

TEST(FabricLab, RejectsANegativeNodeIndex) {
  expect_rejected(job("bad-tenant", {0, -1}), "nodes");
}

TEST(FabricLab, TenantsDeliverTheirBytesAcrossAFatTree) {
  Scenario s = contended_fat_tree();
  FabricLab lab(s);
  FabricReport r = lab.run();
  ASSERT_EQ(r.tenants.size(), 2u);
  const double expect_bytes = 3.0 * (std::size_t{4} << 20);
  EXPECT_EQ(r.tenant("victim")->bytes, expect_bytes);
  EXPECT_EQ(r.tenant("aggressor")->bytes, expect_bytes);
  EXPECT_EQ(r.tenant("missing"), nullptr);
  EXPECT_EQ(r.total_bytes, 2.0 * expect_bytes);
  // Delivery latency is measured per message against the injection grid.
  EXPECT_EQ(r.tenant("victim")->delivery_latency.n, 3u);
  // All 16 fat-tree links are summarized; the shared uplink saw traffic.
  ASSERT_EQ(r.links.size(), 16u);
  double peak = 0.0;
  for (const LinkReport& l : r.links) peak = std::max(peak, l.peak);
  EXPECT_GT(peak, 0.0);
  EXPECT_GT(r.routes, 0u);
  EXPECT_EQ(r.reroutes, 0u);  // minimal routing never deviates
}

TEST(FabricLab, AggressorSlowsTheVictimOnTheSharedSpine) {
  Scenario s = contended_fat_tree();
  FabricLab lab(s);
  const double alone = lab.run("victim").tenant("victim")->finish;
  FabricReport both = lab.run({"victim", "aggressor"});
  const double together = both.tenant("victim")->finish;
  EXPECT_GT(alone, 0.0);
  // Both tenants squeeze through the same half-rate uplink pair.
  EXPECT_GT(together, 1.2 * alone);
  // The silent tenant reports nothing in the alone run.
  FabricReport alone_report = lab.run("victim");
  EXPECT_EQ(alone_report.tenant("aggressor")->bytes, 0.0);
  EXPECT_EQ(alone_report.tenant("aggressor")->finish, 0.0);
}

TEST(FabricLab, AdaptiveRoutingRelievesTheSharedSpine) {
  Scenario minimal = contended_fat_tree();
  Scenario adaptive = contended_fat_tree();
  adaptive.topology.routing(net::RoutingPolicy::kAdaptive);
  FabricLab lab_min(minimal);
  FabricLab lab_ad(adaptive);
  FabricReport r_min = lab_min.run();
  FabricReport r_ad = lab_ad.run();
  // Adaptive spreads the two streams over both spines: strictly earlier
  // finish and at least one recorded deviation from the minimal spine.
  EXPECT_LT(r_ad.elapsed, r_min.elapsed);
  EXPECT_GT(r_ad.reroutes, 0u);
  EXPECT_EQ(r_min.reroutes, 0u);
}

TEST(FabricLab, RepeatRunsAreBitwiseIdentical) {
  Scenario s = contended_fat_tree();
  s.topology.routing(net::RoutingPolicy::kAdaptive);
  FabricLab lab(s);
  FabricReport a = lab.run();
  std::vector<net::Cluster::RouteChoice> trace_a = lab.cluster().route_trace();
  FabricReport b = lab.run();
  std::vector<net::Cluster::RouteChoice> trace_b = lab.cluster().route_trace();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.reroutes, b.reroutes);
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].finish, b.tenants[i].finish);
    EXPECT_EQ(a.tenants[i].delivery_latency.median, b.tenants[i].delivery_latency.median);
  }
  // The exact routing decision sequence reproduces, RNG tie-breaks and all.
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].src, trace_b[i].src);
    EXPECT_EQ(trace_a[i].dst, trace_b[i].dst);
    EXPECT_EQ(trace_a[i].via, trace_b[i].via);
  }
}

// ---- warm per-thread storage ------------------------------------------------

/// A run's outcome as words, doubles by their bits: equal vectors mean
/// bit-identical runs.
struct Bits {
  std::vector<std::uint64_t> words;
  void add(double v) { words.push_back(std::bit_cast<std::uint64_t>(v)); }
  void add(std::uint64_t v) { words.push_back(v); }
  void add(const trace::Stats& s) {
    add(static_cast<std::uint64_t>(s.n));
    for (const double v : {s.median, s.decile1, s.decile9, s.mean, s.min, s.max}) add(v);
  }
  void add(const std::string& text) {
    for (const char c : text) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    add(~std::uint64_t{0});
  }
};

Bits adaptive_fabric_run() {
  Scenario s = contended_fat_tree();
  s.topology.routing(net::RoutingPolicy::kAdaptive);
  FabricLab lab(s);
  const FabricReport r = lab.run();
  Bits b;
  for (const TenantReport& t : r.tenants) {
    b.add(t.label);
    for (const double v : {t.bytes, t.finish, t.achieved_bw}) b.add(v);
    b.add(t.delivery_latency);
  }
  for (const LinkReport& l : r.links) {
    b.add(l.name);
    b.add(l.peak);
  }
  for (const double v : {r.elapsed, r.total_bytes, r.aggregate_bw}) b.add(v);
  for (const std::uint64_t v : {r.routes, r.reroutes, r.link_reads}) b.add(v);
  const sim::MaxMinSolver::Stats& st = lab.cluster().model().solver().stats();
  for (const std::uint64_t v : {st.solves, st.flow_visits, st.resource_visits}) b.add(v);
  return b;
}

Bits interference_run() {
  Scenario s;
  s.computing_cores = 6;
  s.message_bytes = std::size_t{1} << 20;
  s.pingpong_iterations = 12;
  s.compute_repetitions = 2;
  InterferenceLab lab(s);
  const SideBySideResult r = lab.run();
  Bits b;
  for (const ComputePhase* c : {&r.compute_alone, &r.compute_together}) {
    b.add(c->pass_duration);
    b.add(c->per_core_bandwidth);
    b.add(c->mem_stall_fraction);
  }
  for (const CommPhase* c : {&r.comm_alone, &r.comm_together}) {
    b.add(c->latency);
    b.add(c->bandwidth);
  }
  return b;
}

/// Seeded churn straight on a solver: flows come and go, capacities move,
/// and every solve's rates, loads and pressures are recorded.
Bits solver_batch() {
  sim::Rng rng(29);
  sim::MaxMinSolver solver;
  constexpr std::size_t kResources = 48;
  for (std::size_t r = 0; r < kResources; ++r) solver.add_resource(rng.uniform(1.0, 50.0));
  std::vector<sim::MaxMinSolver::FlowId> live;
  Bits b;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t pick = rng.below(8);
    if (pick < 4 || live.empty()) {
      std::vector<sim::MaxMinFlow::Entry> entries;
      const std::uint64_t n = 1 + rng.below(4);
      for (std::uint64_t e = 0; e < n; ++e)
        entries.push_back({static_cast<std::size_t>(rng.below(kResources)), rng.uniform(0.5, 2.0)});
      live.push_back(solver.add_flow(rng.uniform(0.5, 2.0),
                                     rng.below(3) == 0 ? rng.uniform(1.0, 10.0) : 0.0, entries));
    } else if (pick < 7) {
      const std::size_t i = static_cast<std::size_t>(rng.below(live.size()));
      solver.remove_flow(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      solver.set_capacity(static_cast<std::size_t>(rng.below(kResources)),
                          rng.uniform(1.0, 50.0));
    }
    solver.solve();
    for (const sim::MaxMinSolver::FlowId f : live) b.add(solver.rate(f));
    for (std::size_t r = 0; r < kResources; ++r) {
      b.add(solver.load(r));
      b.add(solver.pressure(r));
    }
  }
  const sim::MaxMinSolver::Stats& st = solver.stats();
  for (const std::uint64_t v : {st.flow_visits, st.resource_visits, st.components_filled,
                                st.replay_resource_visits})
    b.add(v);
  return b;
}

TEST(FlowModelStorage, ReusedBuffersGiveBitIdenticalRuns) {
  using Run = Bits (*)();
  const Run runs[] = {adaptive_fabric_run, interference_run, solver_batch};
  // Each run alone on a fresh thread: nothing warm to reuse.
  std::vector<Bits> fresh;
  for (const Run run : runs) std::thread([&] { fresh.push_back(run()); }).join();
  // One thread that first builds and drops a 4,096-node and a 2-node
  // cluster, then runs each of the three twice in a row, each run on the
  // storage the run before it handed back.  A second run meets its twin's
  // round and replay stamps at exactly the epochs that left them, so a
  // store that kept them would change its result.
  std::vector<Bits> warm;
  std::thread([&] {
    {
      net::ClusterSpec big;
      big.topology = net::Topology::dragonfly(16, 16, 16);
      big.nodes = 4096;
      const net::Cluster cluster(big);
    }
    { const net::Cluster small(net::ClusterSpec{}); }
    for (const Run run : runs)
      for (int twice = 0; twice < 2; ++twice) warm.push_back(run());
  }).join();
  ASSERT_EQ(warm.size(), 2 * fresh.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_FALSE(fresh[i / 2].words.empty()) << i;
    EXPECT_EQ(warm[i].words, fresh[i / 2].words) << "run " << i / 2 << ", pass " << i % 2;
  }
}

// ---- campaign integration ---------------------------------------------------

Campaign fabric_campaign() {
  Scenario base = contended_fat_tree();
  SweepSpec spec(base);
  spec.seed_policy(SeedPolicy::kFixed)
      .axis<net::RoutingPolicy>(
          "routing", {net::RoutingPolicy::kMinimal, net::RoutingPolicy::kAdaptive},
          [](Scenario& s, const net::RoutingPolicy& p) { s.topology.routing(p); },
          [](const net::RoutingPolicy& p) { return std::string(net::to_string(p)); },
          [](const net::RoutingPolicy& p) { return static_cast<double>(p); })
      .values("offered_load", {0.5, 1.0},
              [](Scenario& s, double v) {
                for (JobSpec& j : s.jobs) j.offered_load = v;
              });
  Campaign c("fabric_test", std::move(spec));
  c.column("elapsed_ms", 3, Campaign::Metric{})
      .column("victim_bw", 3, Campaign::Metric{})
      .evaluator("fabric_test.v1", [](const SweepPoint& p) -> std::vector<double> {
        FabricLab lab(p.scenario);
        FabricReport r = lab.run();
        return {r.elapsed * 1e3, r.tenant("victim")->achieved_bw / 1e9};
      });
  return c;
}

TEST(FabricLab, CampaignValuesAreThreadCountInvariant) {
  Campaign c = fabric_campaign();
  CampaignOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 8;
  CampaignRun a = CampaignEngine(serial).run(c);
  CampaignRun b = CampaignEngine(parallel).run(c);
  ASSERT_EQ(a.values.size(), 4u);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i)
    EXPECT_EQ(a.values[i], b.values[i]) << "point " << i;
  std::ostringstream ta, tb;
  a.table(c).print(ta);
  b.table(c).print(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(FabricLab, CampaignShardsUnionToTheFullGrid) {
  Campaign c = fabric_campaign();
  CampaignRun full = CampaignEngine(CampaignOptions{}).run(c);
  std::set<std::size_t> seen;
  for (int shard = 0; shard < 2; ++shard) {
    CampaignOptions o;
    o.shard_index = shard;
    o.shard_count = 2;
    CampaignRun run = CampaignEngine(o).run(c);
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      EXPECT_TRUE(seen.insert(run.points[i].index).second);
      EXPECT_EQ(run.values[i], full.values[run.points[i].index]);
    }
  }
  EXPECT_EQ(seen.size(), full.points.size());
}

TEST(CampaignSchemaV3, CacheKeySeesTopologyAndTenantChanges) {
  Campaign c = fabric_campaign();
  SweepPoint base = c.spec().expand()[0];

  SweepPoint other_topology = base;
  other_topology.scenario.topology = net::Topology::dragonfly(3, 2, 2);
  EXPECT_NE(cache_key(c, base), cache_key(c, other_topology));

  SweepPoint other_threshold = base;
  other_threshold.scenario.topology.adaptive_threshold(0.9);
  EXPECT_NE(cache_key(c, base), cache_key(c, other_threshold));

  SweepPoint other_placement = base;
  other_placement.scenario.jobs[0].nodes = {0, 4};  // different leaf
  EXPECT_NE(cache_key(c, base), cache_key(c, other_placement));

  SweepPoint other_pattern = base;
  other_pattern.scenario.jobs[0].pattern = TrafficPattern::kRing;
  EXPECT_NE(cache_key(c, base), cache_key(c, other_pattern));

  SweepPoint fewer_jobs = base;
  fewer_jobs.scenario.jobs.pop_back();
  EXPECT_NE(cache_key(c, base), cache_key(c, fewer_jobs));

  // And the serialization itself names the new fields.
  std::ostringstream os;
  serialize_scenario(os, base.scenario);
  EXPECT_NE(os.str().find("t.kind="), std::string::npos);
  EXPECT_NE(os.str().find("s.jobs=2;"), std::string::npos);
  EXPECT_NE(os.str().find("victim"), std::string::npos);
}

}  // namespace
}  // namespace cci::core
