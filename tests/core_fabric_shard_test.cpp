// FabricLab::run_sharded — the cross-shard fabric simulation: thousand-node
// dragonfly carves, boundary-proxy exchange, bitwise run-to-run determinism
// (tables and timelines), serial-engine equivalence at shards == 1 and the
// degenerate shapes (single switch, adaptive routing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fabric_lab.hpp"
#include "net/fabric_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/flow_model.hpp"

namespace cci::core {
namespace {

JobSpec ring_job(std::string label, std::vector<int> nodes, int iterations) {
  JobSpec j;
  j.label = std::move(label);
  j.nodes = std::move(nodes);
  j.iterations = iterations;
  j.pattern = TrafficPattern::kRing;
  return j;
}

/// Two ring tenants interleaved across every node of a dragonfly — traffic
/// on every router and a dense set of cross-group globals, so any carve
/// into > 1 shard must cut links.
Scenario interleaved_rings(int groups, int routers, int hosts, int iterations) {
  Scenario s;
  s.topology = net::Topology::dragonfly(groups, routers, hosts);
  const int nodes = groups * routers * hosts;
  std::vector<int> even, odd;
  for (int n = 0; n < nodes; n += 2) even.push_back(n);
  for (int n = 1; n < nodes; n += 2) odd.push_back(n);
  s.jobs = {ring_job("even", std::move(even), iterations),
            ring_job("odd", std::move(odd), iterations)};
  return s;
}

/// Everything determinism cares about, rendered to exact text: tenant
/// tables, link tables and the shard/window/exchange counters.
std::string report_text(const FabricReport& r) {
  std::ostringstream os;
  char buf[512];
  for (const TenantReport& t : r.tenants) {
    const trace::Stats& d = t.delivery_latency;
    std::snprintf(buf, sizeof buf,
                  "tenant %s %.17g %.17g %.17g | %zu %.17g %.17g %.17g %.17g %.17g\n",
                  t.label.c_str(), t.bytes, t.finish, t.achieved_bw, d.n, d.median,
                  d.decile1, d.decile9, d.mean, d.max);
    os << buf;
  }
  for (const LinkReport& l : r.links) {
    std::snprintf(buf, sizeof buf, "link %s %.17g\n", l.name.c_str(), l.peak);
    os << buf;
  }
  std::snprintf(buf, sizeof buf,
                "elapsed %.17g total %.17g routes %llu shards %d populated %d "
                "boundary %d windows %llu exchanges %llu visits %llu events %llu\n",
                r.elapsed, r.total_bytes, static_cast<unsigned long long>(r.routes),
                r.shards, r.populated_shards, r.boundary_links,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.exchanges),
                static_cast<unsigned long long>(r.solver_flow_visits),
                static_cast<unsigned long long>(r.events));
  os << buf;
  return os.str();
}

TEST(FabricShard, ThousandNodeDragonflyCarvesAcrossFourShards) {
  // 16 groups x 8 routers x 8 hosts = 1024 nodes — the scale the serial
  // engine cannot carve (every flow couples through the globals).
  Scenario s = interleaved_rings(16, 8, 8, /*iterations=*/2);
  FabricLab lab(s);
  FabricReport r = lab.run_sharded(4);
  EXPECT_EQ(r.shards, 4);
  EXPECT_GT(r.populated_shards, 1);
  EXPECT_GT(r.boundary_links, 0);
  EXPECT_GT(r.windows, 1u);
  EXPECT_GT(r.exchanges, 0u);
  // Every stream delivers all its bytes regardless of the carve.
  const double per_tenant = 512.0 * 2.0 * static_cast<double>(1 << 20);
  EXPECT_EQ(r.tenant("even")->bytes, per_tenant);
  EXPECT_EQ(r.tenant("odd")->bytes, per_tenant);
  EXPECT_GT(r.routes, 0u);
  EXPECT_GT(r.solver_flow_visits, 0u);
  EXPECT_GT(r.events, 0u);
  ASSERT_EQ(r.links.size(), s.topology.links().size());
  double peak = 0.0;
  for (const LinkReport& l : r.links) peak = std::max(peak, l.peak);
  EXPECT_GT(peak, 0.0);
}

TEST(FabricShard, FourShardRunsAreBitwiseIdentical) {
  Scenario s = interleaved_rings(8, 4, 4, /*iterations=*/3);
  std::string first_text, first_timeline;
  for (int run = 0; run < 2; ++run) {
    // Shard registries inherit the coordinator registry's enabled state;
    // the sampler only sees metrics that actually record.
    obs::Registry reg;
    reg.set_enabled(true);
    obs::Registry::ScopedThreadLocal rscope(reg);
    obs::TimelineStore store;
    obs::RunSampling rs;
    rs.timeline_period = 2e-5;
    rs.timeline = &store;
    obs::ScopedRunSampling scope(rs);
    FabricLab lab(s);
    const FabricReport r = lab.run_sharded(4);
    const std::string text = report_text(r);
    std::ostringstream csv;
    store.write_csv(csv);
    if (run == 0) {
      first_text = text;
      first_timeline = csv.str();
      EXPECT_GT(store.size(), 0u);
    } else {
      EXPECT_EQ(text, first_text);
      EXPECT_EQ(csv.str(), first_timeline);
    }
  }
}

/// The shards == 1 path is the plain serial engine: no workers, proxies or
/// barriers.  Rebuild the same fluid scenario by hand on a standalone
/// Engine + FabricGraph and demand bitwise-equal delivery instants.
TEST(FabricShard, SingleShardMatchesAStandaloneSerialEngine) {
  Scenario s;
  s.topology = net::Topology::dragonfly(4, 2, 2);  // 16 nodes
  JobSpec j;
  j.label = "pair";
  j.nodes = {0, 9};  // cross-group: the full gateway route
  j.iterations = 3;
  s.jobs = {j};
  FabricLab lab(s);
  const FabricReport sharded = lab.run_sharded(1);
  EXPECT_EQ(sharded.shards, 1);
  EXPECT_EQ(sharded.populated_shards, 1);
  EXPECT_EQ(sharded.boundary_links, 0);
  EXPECT_EQ(sharded.exchanges, 0u);

  // Serial reference: one open-loop stream, injected on run_sharded()'s
  // schedule (sleep to slot i * gap, one activity over the static route).
  sim::Engine eng;
  sim::FlowModel model(eng);
  net::FabricGraph fabric(s.topology, s.network, 16);
  fabric.materialize(model);
  std::vector<int> keys;
  fabric.minimal_path(0, 9, keys);
  std::vector<double> finishes;
  const double bytes = static_cast<double>(j.message_bytes);
  const double gap = bytes / s.network.wire_bw;
  auto stream = [&](void) -> sim::Coro {
    for (int i = 0; i < 3; ++i) {
      const double due = static_cast<double>(i) * gap;
      if (eng.now() < due) co_await eng.sleep_until(due);
      sim::ActivitySpec spec;
      spec.label = eng.intern("fabric.pair");
      spec.work = bytes;
      for (int key : keys) spec.demands.push_back({fabric.at(key), 1.0});
      co_await *model.start(spec);
      finishes.push_back(eng.now());
    }
  };
  eng.spawn(stream());
  eng.run();
  ASSERT_EQ(finishes.size(), 3u);
  EXPECT_EQ(sharded.tenant("pair")->bytes, 3.0 * bytes);
  EXPECT_EQ(sharded.tenant("pair")->finish, finishes.back());  // bitwise
  EXPECT_EQ(sharded.tenant("pair")->delivery_latency.max,
            finishes.back() - 2.0 * gap);
}

/// Link peaks of `s` from a standalone engine running run_sharded(1)'s
/// streams, spawned in the same order, that reads every link after every
/// delivery.  Adds the deliveries to `*deliveries`.
std::vector<double> full_scan_peaks(const Scenario& s, int nodes, std::uint64_t* deliveries) {
  sim::Engine eng;
  sim::FlowModel model(eng);
  net::FabricGraph fabric(s.topology, s.network, nodes);
  fabric.materialize(model);
  const std::size_t links = s.topology.links().size();
  std::vector<double> peak(links, 0.0);
  auto stream = [&](int src, int dst, const JobSpec& job) -> sim::Coro {
    std::vector<int> keys;
    fabric.minimal_path(src, dst, keys);
    const double bytes = static_cast<double>(job.message_bytes);
    const double gap = bytes / (s.network.wire_bw * job.offered_load);
    for (int i = 0; i < job.iterations; ++i) {
      const double due = static_cast<double>(i) * gap;
      if (eng.now() < due) co_await eng.sleep_until(due);
      sim::ActivitySpec spec;
      spec.work = bytes;
      for (int key : keys) spec.demands.push_back({fabric.at(key), 1.0});
      co_await *model.start(spec);
      ++*deliveries;
      for (std::size_t li = 0; li < links; ++li) {
        const int key = fabric.link_key(static_cast<int>(li));
        peak[li] = std::max(peak[li], fabric.at(key)->load() / fabric.base_capacity(key));
      }
    }
  };
  for (const JobSpec& job : s.jobs) {
    const int n = static_cast<int>(job.nodes.size());
    const bool ring = job.pattern == TrafficPattern::kRing;
    for (int r = 0; ring ? r < n : r + 1 < n; r += ring ? 1 : 2)
      eng.spawn(stream(job.nodes[static_cast<std::size_t>(r)],
                       job.nodes[static_cast<std::size_t>((r + 1) % n)], job));
  }
  eng.run();
  return peak;
}

/// Delivery sampling re-reads only the links whose load changed since the
/// shard's previous sample.  Against a standalone engine that re-reads
/// every link at every delivery, each link's peak must agree bit for bit,
/// from far fewer reads.  The second scenario's long transfer loads its
/// links before the first delivery and keeps them unchanged until its own:
/// only the full read at the first sample sees that load.
TEST(FabricShard, ChangedLinkSamplingMatchesAFullScanBitwise) {
  Scenario mixed;
  mixed.topology = net::Topology::dragonfly(4, 2, 2);  // 16 nodes
  JobSpec shortp;
  shortp.label = "short";
  shortp.nodes = {0, 5};
  shortp.message_bytes = 1 << 16;
  JobSpec longp;
  longp.label = "long";
  longp.nodes = {8, 13};  // disjoint from the short pair's route
  longp.message_bytes = 1 << 24;
  mixed.jobs = {shortp, longp};
  for (const Scenario& s : {interleaved_rings(4, 2, 2, /*iterations=*/3), mixed}) {
    FabricLab lab(s);
    const FabricReport sharded = lab.run_sharded(1);
    std::uint64_t deliveries = 0;
    const std::vector<double> peak = full_scan_peaks(s, 16, &deliveries);
    const std::size_t links = s.topology.links().size();
    ASSERT_EQ(sharded.links.size(), links);
    double max_peak = 0.0;
    for (std::size_t li = 0; li < links; ++li) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sharded.links[li].peak),
                std::bit_cast<std::uint64_t>(peak[li]))
          << sharded.links[li].name << ": " << sharded.links[li].peak << " vs " << peak[li];
      max_peak = std::max(max_peak, peak[li]);
    }
    EXPECT_GT(max_peak, 0.0);
    EXPECT_GT(sharded.link_reads, 0u);
    EXPECT_LT(sharded.link_reads, deliveries * links);
  }
}

TEST(FabricShard, ShardedRunDeliversTheSameBytesAsSerial) {
  Scenario s = interleaved_rings(4, 2, 2, /*iterations=*/3);
  FabricLab lab(s);
  const FabricReport serial = lab.run_sharded(1);
  const FabricReport split = lab.run_sharded(2);
  EXPECT_EQ(serial.boundary_links, 0);
  EXPECT_EQ(serial.windows, 0u);  // inline serial engine: no barriers at all
  EXPECT_EQ(split.populated_shards, 2);
  EXPECT_GT(split.boundary_links, 0);
  // Delivered bytes and routing decisions are carve-invariant; only the
  // contention model (fair-share proxies vs global max-min) may differ.
  for (const TenantReport& t : serial.tenants) {
    const TenantReport* o = split.tenant(t.label);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->bytes, t.bytes);
    EXPECT_EQ(o->delivery_latency.n, t.delivery_latency.n);
  }
  EXPECT_EQ(split.routes, serial.routes);
  EXPECT_GT(split.elapsed, 0.0);
}

TEST(FabricShard, ShardCountBelowOneThrows) {
  // There is no default count: zero and negative counts are errors that
  // name the value.
  FabricLab lab(interleaved_rings(4, 2, 2, 2));
  for (int shards : {0, -1}) {
    try {
      lab.run_sharded(shards);
      ADD_FAILURE() << "run_sharded(" << shards << ") did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(shards)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FabricShard, AdaptiveRoutingIsRejected) {
  Scenario s = interleaved_rings(4, 2, 2, 2);
  s.topology.routing(net::RoutingPolicy::kAdaptive);
  FabricLab lab(s);
  EXPECT_THROW(lab.run_sharded(2), std::invalid_argument);
}

TEST(FabricShard, SingleSwitchCollapsesToOneShard) {
  Scenario s;  // default single switch
  JobSpec a, b;
  a.label = "a";
  a.nodes = {0, 1};
  b.label = "b";
  b.nodes = {2, 3};
  s.jobs = {a, b};
  FabricLab lab(s);
  const FabricReport r = lab.run_sharded(4);
  // One topology group: every stream lands on one shard and the carve has
  // nothing to cut — no proxies, no exchange, a single window.
  EXPECT_EQ(r.shards, 4);
  EXPECT_EQ(r.populated_shards, 1);
  EXPECT_EQ(r.boundary_links, 0);
  EXPECT_EQ(r.exchanges, 0u);
  EXPECT_EQ(r.tenant("a")->bytes, 4.0 * static_cast<double>(1 << 20));
  EXPECT_TRUE(r.links.empty());
}

}  // namespace
}  // namespace cci::core
