// FabricLab::run_sharded — the cross-shard fabric simulation: thousand-node
// dragonfly carves, boundary-proxy exchange, bitwise run-to-run determinism
// (tables and timelines), serial-engine equivalence at shards == 1, lean
// replicas against a fully materialized fabric on generated shapes, shard
// workers reused across runs and coordinators, and the degenerate shapes
// (single switch, adaptive routing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fabric_lab.hpp"
#include "net/fabric_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/flow_model.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"

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

/// Every key of `fabric` as a resource of `model`, in key order: the full
/// fabric a lean replica must behave like.
void materialize_all(net::FabricGraph& fabric, sim::FlowModel& model) {
  for (int key = 0; key < fabric.key_count(); ++key) fabric.materialize(model, key);
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

/// Shard workers belong to the coordinating thread and outlive each run:
/// after the first run_sharded(4) on a thread, later ones start no thread,
/// and a run on warm workers is bit-identical to one on a fresh thread.
TEST(FabricShard, RepeatedRunsStartNoThreadAndMatchAFreshThread) {
  const Scenario s = interleaved_rings(8, 4, 4, /*iterations=*/3);
  std::string fresh;
  std::thread([&] { fresh = report_text(FabricLab(s).run_sharded(4)); }).join();
  std::thread([&] {
    FabricLab lab(s);
    EXPECT_EQ(report_text(lab.run_sharded(4)), fresh);
    EXPECT_EQ(sim::ShardGroup::pooled_workers(), 4);
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(report_text(lab.run_sharded(4)), fresh) << "run " << run;
      EXPECT_EQ(report_text(lab.run_sharded(2)), report_text(FabricLab(s).run_sharded(2)));
    }
    EXPECT_EQ(sim::ShardGroup::pooled_workers(), 4);
  }).join();
}

/// Coordinators running at once each use their own pool: every one matches
/// the result of the same run made alone.
TEST(FabricShard, ConcurrentCoordinatorsMatchTheirSerialResults) {
  const Scenario scenarios[2] = {interleaved_rings(8, 4, 4, /*iterations=*/3),
                                 interleaved_rings(4, 4, 4, /*iterations=*/4)};
  std::string alone[2];
  for (int c = 0; c < 2; ++c) alone[c] = report_text(FabricLab(scenarios[c]).run_sharded(4));
  std::string got[2];
  std::thread coordinators[2];
  for (int c = 0; c < 2; ++c)
    coordinators[c] = std::thread([&scenarios, &got, c] {
      for (int run = 0; run < 2; ++run) got[c] = report_text(FabricLab(scenarios[c]).run_sharded(4));
    });
  for (std::thread& t : coordinators) t.join();
  for (int c = 0; c < 2; ++c) EXPECT_EQ(got[c], alone[c]) << "coordinator " << c;
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
  materialize_all(fabric, model);
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

/// Cluster size FabricLab builds for `s`: one past the highest tenant node,
/// at least two.
int lab_nodes(const Scenario& s) {
  int nodes = 2;
  for (const JobSpec& job : s.jobs)
    for (int n : job.nodes) nodes = std::max(nodes, n + 1);
  return nodes;
}

/// run_sharded(1)'s streams on a standalone engine over a fully
/// materialized FabricGraph, spawned in the same order, reading every link
/// after every delivery: the reference a lean replica must match.
struct FullFabricRun {
  std::vector<double> peak;           ///< per topology link
  std::vector<double> bytes;          ///< per tenant
  std::vector<double> finish;         ///< per tenant
  std::vector<trace::Stats> latency;  ///< per tenant
  std::uint64_t deliveries = 0;
};

FullFabricRun full_fabric_run(const Scenario& s) {
  sim::Engine eng;
  sim::FlowModel model(eng);
  net::FabricGraph fabric(s.topology, s.network, lab_nodes(s));
  materialize_all(fabric, model);
  const std::size_t links = s.topology.links().size();
  FullFabricRun out;
  out.peak.assign(links, 0.0);
  out.bytes.assign(s.jobs.size(), 0.0);
  out.finish.assign(s.jobs.size(), 0.0);
  std::vector<std::vector<double>> latencies(s.jobs.size());
  auto stream = [&](int src, int dst, std::size_t j) -> sim::Coro {
    const JobSpec& job = s.jobs[j];
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
      const double now = eng.now();
      out.bytes[j] += bytes;
      out.finish[j] = std::max(out.finish[j], now);
      latencies[j].push_back(now - due);
      ++out.deliveries;
      for (std::size_t li = 0; li < links; ++li) {
        const int key = fabric.link_key(static_cast<int>(li));
        out.peak[li] =
            std::max(out.peak[li], fabric.at(key)->load() / fabric.base_capacity(key));
      }
    }
  };
  for (std::size_t j = 0; j < s.jobs.size(); ++j) {
    const JobSpec& job = s.jobs[j];
    const int n = static_cast<int>(job.nodes.size());
    const bool ring = job.pattern == TrafficPattern::kRing;
    if (ring && n < 2) continue;
    for (int r = 0; ring ? r < n : r + 1 < n; r += ring ? 1 : 2)
      eng.spawn(stream(job.nodes[static_cast<std::size_t>(r)],
                       job.nodes[static_cast<std::size_t>((r + 1) % n)], j));
  }
  eng.run();
  for (std::vector<double>& l : latencies) out.latency.push_back(trace::Stats::of(std::move(l)));
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every tenant row and link peak of `r` equals the full-fabric reference
/// bit for bit.
void expect_matches_full_fabric(const FabricReport& r, const FullFabricRun& ref) {
  ASSERT_EQ(r.tenants.size(), ref.bytes.size());
  for (std::size_t j = 0; j < r.tenants.size(); ++j) {
    const TenantReport& t = r.tenants[j];
    const trace::Stats& got = t.delivery_latency;
    const trace::Stats& want = ref.latency[j];
    EXPECT_EQ(bits(t.bytes), bits(ref.bytes[j])) << t.label;
    EXPECT_EQ(bits(t.finish), bits(ref.finish[j])) << t.label;
    EXPECT_EQ(got.n, want.n) << t.label;
    EXPECT_EQ(bits(got.median), bits(want.median)) << t.label;
    EXPECT_EQ(bits(got.decile1), bits(want.decile1)) << t.label;
    EXPECT_EQ(bits(got.decile9), bits(want.decile9)) << t.label;
    EXPECT_EQ(bits(got.mean), bits(want.mean)) << t.label;
    EXPECT_EQ(bits(got.max), bits(want.max)) << t.label;
  }
  ASSERT_EQ(r.links.size(), ref.peak.size());
  for (std::size_t li = 0; li < ref.peak.size(); ++li)
    EXPECT_EQ(bits(r.links[li].peak), bits(ref.peak[li]))
        << r.links[li].name << ": " << r.links[li].peak << " vs " << ref.peak[li];
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
    const FullFabricRun ref = full_fabric_run(s);
    const std::size_t links = s.topology.links().size();
    ASSERT_EQ(sharded.links.size(), links);
    expect_matches_full_fabric(sharded, ref);
    EXPECT_GT(*std::max_element(ref.peak.begin(), ref.peak.end()), 0.0);
    EXPECT_GT(sharded.link_reads, 0u);
    EXPECT_LT(sharded.link_reads, ref.deliveries * links);
  }
}

/// A seeded fat-tree (k = 4-8) or dragonfly (2-5 groups x 1-4 routers x
/// 1-3 hosts) with 1-3 ring or pair tenants on random node subsets.
/// `shape` names the topology for failure messages.
Scenario generated_scenario(std::uint64_t seed, std::string& shape) {
  sim::Rng rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  Scenario s;
  int hosts = 0;
  if (seed % 2 == 0) {
    const int k = 2 * pick(2, 4);
    s.topology = net::Topology::fat_tree(k);
    hosts = k * (k / 2);
    shape = "fat_tree(" + std::to_string(k) + ")";
  } else {
    const int groups = pick(2, 5);
    const int routers = pick(1, 4);
    const int per_router = pick(1, 3);
    s.topology = net::Topology::dragonfly(groups, routers, per_router);
    hosts = groups * routers * per_router;
    shape = "dragonfly(" + std::to_string(groups) + ", " + std::to_string(routers) + ", " +
            std::to_string(per_router) + ")";
  }
  const int tenants = pick(1, 3);
  for (int t = 0; t < tenants; ++t) {
    JobSpec j;
    j.label = "t" + std::to_string(t);
    j.pattern = pick(0, 1) == 0 ? TrafficPattern::kRing : TrafficPattern::kPairs;
    j.iterations = pick(1, 3);
    j.message_bytes = std::size_t{1} << pick(12, 20);
    j.offered_load = rng.uniform(0.25, 2.0);
    std::vector<int> order(static_cast<std::size_t>(hosts));
    for (int n = 0; n < hosts; ++n) order[static_cast<std::size_t>(n)] = n;
    for (int n = hosts - 1; n > 0; --n)
      std::swap(order[static_cast<std::size_t>(n)], order[static_cast<std::size_t>(pick(0, n))]);
    order.resize(static_cast<std::size_t>(pick(2, std::min(hosts, 12))));
    j.nodes = std::move(order);
    s.jobs.push_back(std::move(j));
  }
  return s;
}

/// Bytes tenant `job` offers: every stream's messages.
double offered_bytes(const JobSpec& job) {
  const auto n = static_cast<double>(job.nodes.size());
  const double streams = job.pattern == TrafficPattern::kRing ? n : std::floor(n / 2.0);
  return streams * job.iterations * static_cast<double>(job.message_bytes);
}

/// Each shard materializes only the keys its own streams route over.  At
/// one shard that lean replica must reproduce a fully materialized fabric
/// bit for bit; at 2 and 4 shards runs must repeat bit for bit and deliver
/// everything every tenant offered.
TEST(FabricShard, LeanReplicasMatchTheFullFabricOnGeneratedShapes) {
  int lean = 0;  // shapes whose replica leaves keys out
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::string shape;
    const Scenario s = generated_scenario(seed, shape);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + shape);
    FabricLab lab(s);
    const FabricReport one = lab.run_sharded(1);
    expect_matches_full_fabric(one, full_fabric_run(s));
    const auto keys = static_cast<std::uint64_t>(
        net::FabricGraph(s.topology, s.network, lab_nodes(s)).key_count());
    EXPECT_GT(one.replica_resources, 0u);
    EXPECT_LE(one.replica_resources, keys);
    if (one.replica_resources < keys) ++lean;
    for (int shards : {2, 4}) {
      const FabricReport a = lab.run_sharded(shards);
      const FabricReport b = lab.run_sharded(shards);
      EXPECT_EQ(report_text(a), report_text(b)) << shards << " shards";
      EXPECT_EQ(a.replica_resources, b.replica_resources) << shards << " shards";
      for (std::size_t j = 0; j < s.jobs.size(); ++j)
        EXPECT_EQ(a.tenants[j].bytes, offered_bytes(s.jobs[j]))
            << shards << " shards, tenant " << s.jobs[j].label;
    }
  }
  EXPECT_GT(lean, 0);
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
