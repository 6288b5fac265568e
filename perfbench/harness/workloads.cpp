#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "core/campaign.hpp"
#include "core/fabric_lab.hpp"
#include "core/interference_lab.hpp"
#include "net/cluster.hpp"
#include "net/fabric_graph.hpp"
#include "net/topology.hpp"
#include "sim/partition.hpp"
#include "trace/table.hpp"

namespace perfbench {

namespace core = cci::core;
namespace net = cci::net;
namespace sim = cci::sim;
namespace trace = cci::trace;

namespace {

using Scope = Recorder::Scope;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Wall and CPU seconds of one timed section.
class Stopwatch {
 public:
  Stopwatch() : t0_(Clock::now()), cpu0_(cpu_seconds()) {}
  void stop(Batch& b) const {
    b.wall_s = seconds_since(t0_);
    b.cpu_s = cpu_seconds() - cpu0_;
  }

 private:
  Clock::time_point t0_;
  double cpu0_;
};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> span_durations(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

/// Sum of the durations (seconds) of spans called `name`.
double span_seconds(const std::vector<Span>& spans, std::string_view name) {
  const std::vector<double> d = span_durations(spans, name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}
// ---- paper_protocol ----------------------------------------------------------
//
// The paper's three-phase protocol (compute alone, comm alone, side by side)
// over the fig04/fig05 grid: data near/far x comm thread near/far x {4 B,
// 64 MB} x paper_core_counts(35) = 104 points, run by the campaign engine at
// `workers` jobs against a fresh cache, then a warm pass over the same grid.

class PaperProtocol final : public Workload {
 public:
  explicit PaperProtocol(const Options& opt) : opt_(opt), base_seed_(opt.seed) {}

  void setup(Recorder& rec) override {
    {
      Scope s(rec, "core.campaign.build");
      campaign_ = std::make_unique<core::Campaign>(make_campaign());
    }
    std::vector<core::SweepPoint> points;
    {
      Scope s(rec, "core.campaign.expand");
      points = campaign_->spec().expand(&base_seed_);
    }
    for (const core::SweepPoint& p : points) {
      Scope s(rec, "core.lab.ctor");
      core::InterferenceLab lab(p.scenario);
    }
  }

  Batch run_batch(Recorder& rec) override {
    rec_ = &rec;
    Batch b;
    const std::size_t n = campaign_->spec().point_count();
    b.attempted = 2 * n;  // every point, cold then warm
    records_.assign(n, {});
    const std::string dir = fresh_cache_dir();
    try {
      core::CampaignEngine engine(options(opt_.workers, dir));
      Stopwatch sw;
      core::CampaignRun cold;
      core::CampaignRun warm;
      const auto t0 = Clock::now();
      {
        Scope s(rec, "core.campaign.run_cold");
        parent_ = s.id();
        cold = engine.run(*campaign_);
      }
      b.times["cold_s"] = seconds_since(t0);
      const auto t1 = Clock::now();
      {
        Scope s(rec, "core.campaign.run_warm");
        parent_ = s.id();
        warm = engine.run(*campaign_);
      }
      b.times["warm_s"] = seconds_since(t1);
      sw.stop(b);
      check(cold, warm, b);
    } catch (const std::exception& e) {
      b.fail(b.attempted - b.failed, std::string("campaign threw: ") + e.what());
    }
    std::filesystem::remove_all(dir);
    for (const PointRecord& r : records_) {
      b.counts["sim.engine.events"] += static_cast<double>(r.events);
      b.counts["sim.maxmin.resolves"] += static_cast<double>(r.solves);
      b.counts["sim.maxmin.visits"] += static_cast<double>(r.visits);
    }
    return b;
  }

  void reference_metrics(const Batch& untraced, Values& out) override {
    // Serial reference for the pool: one cold pass at jobs=1.
    const std::string dir = fresh_cache_dir();
    core::CampaignEngine engine(options(1, dir));
    rec_ = &off_;
    records_.assign(campaign_->spec().point_count(), {});
    const auto t0 = Clock::now();
    (void)engine.run(*campaign_);
    const double serial = seconds_since(t0);
    std::filesystem::remove_all(dir);
    out["core.campaign.speedup"] = serial / untraced.times.at("cold_s");
  }

  void traced_metrics(const std::vector<Span>& setup, const std::vector<Span>& batch,
                      const Batch& traced, Values& out) override {
    (void)setup;
    const std::vector<double> points = span_durations(batch, "core.campaign.point");
    out["core.campaign.point_p50_ms"] = quantile(points, 0.5) * 1e3;
    out["core.campaign.point_p90_ms"] = quantile(points, 0.9) * 1e3;
    out["core.campaign.warm_ms"] = traced.times.at("warm_s") * 1e3;
    out["core.campaign.cache_hit_ratio"] = cache_hit_ratio_;
    out["core.lab.setup_ms"] = span_seconds(batch, "core.lab.ctor") * 1e3;
    out["core.lab.compute_alone_s"] = span_seconds(batch, "core.lab.compute_alone");
    out["core.lab.comm_alone_s"] = span_seconds(batch, "core.lab.comm_alone");
    out["core.lab.together_s"] = span_seconds(batch, "core.lab.together");
  }

 private:
  struct PointRecord {
    std::uint64_t events = 0;
    std::uint64_t solves = 0;
    std::uint64_t visits = 0;
  };

  core::Campaign make_campaign() {
    core::Scenario base;
    base.compute_repetitions = 5;
    base.target_pass_seconds = 0.02;
    core::SweepSpec spec(base);
    const std::vector<std::size_t> sizes =
        opt_.tiny ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 64 << 20};
    spec.data_placement("data", {core::Placement::kNearNic, core::Placement::kFarFromNic})
        .comm_thread_placement("thread",
                               {core::Placement::kNearNic, core::Placement::kFarFromNic})
        .axis<std::size_t>(
            "bytes", sizes,
            [](core::Scenario& s, const std::size_t& bytes) {
              // fig05's ping-pong lengths: latency panels 30 round trips,
              // bandwidth panels 4 after one warm-up.
              s.message_bytes = bytes;
              s.pingpong_iterations = bytes > 4096 ? 4 : 30;
              s.pingpong_warmup = bytes > 4096 ? 1 : 5;
            },
            [](const std::size_t& bytes) {
              return trace::format_bytes(static_cast<double>(bytes));
            },
            [](const std::size_t& bytes) { return static_cast<double>(bytes); })
        .cores("cores", core::paper_core_counts(opt_.tiny ? 3 : 35));
    core::Campaign c("paper_protocol", std::move(spec));
    c.column("lat_alone_us", core::Campaign::Metric{})
        .column("lat_together_us", core::Campaign::Metric{})
        .column("bw_alone_GBps", core::Campaign::Metric{})
        .column("bw_together_GBps", core::Campaign::Metric{})
        .evaluator("perfbench.paper_protocol.v1",
                   [this](const core::SweepPoint& p) { return evaluate(p); });
    return c;
  }

  /// One point: InterferenceLab::run()'s three phases, called one by one so
  /// each gets its own span.
  std::vector<double> evaluate(const core::SweepPoint& p) {
    Scope point(*rec_, "core.campaign.point", parent_);
    std::unique_ptr<core::InterferenceLab> lab;
    {
      Scope s(*rec_, "core.lab.ctor");
      lab = std::make_unique<core::InterferenceLab>(p.scenario);
    }
    core::SideBySideResult r;
    {
      Scope s(*rec_, "core.lab.compute_alone");
      r.compute_alone = lab->run_compute_alone();
    }
    {
      Scope s(*rec_, "core.lab.comm_alone");
      r.comm_alone = lab->run_comm_alone(1000);
    }
    {
      Scope s(*rec_, "core.lab.together");
      lab->run_together(r.compute_together, r.comm_together, 2000);
    }
    PointRecord& rec = records_.at(p.index);
    rec.events = lab->cluster().engine().events_dispatched();
    rec.solves = lab->cluster().model().solver().stats().solves;
    rec.visits = lab->cluster().model().solver().stats().flow_visits;
    return {r.comm_alone.latency.median * 1e6, r.comm_together.latency.median * 1e6,
            r.comm_alone.bandwidth.median / 1e9, r.comm_together.bandwidth.median / 1e9};
  }

  /// Each point is two operations: its cold run (simulated, every column
  /// finite and positive) and its warm run (served from the cache with the
  /// cold values, the warm table byte-identical to the cold one).
  void check(const core::CampaignRun& cold, const core::CampaignRun& warm, Batch& b) {
    const std::size_t n = cold.points.size();
    std::ostringstream t_cold;
    std::ostringstream t_warm;
    cold.table(*campaign_).print(t_cold);
    warm.table(*campaign_).print(t_warm);
    const bool same_table = t_cold.str() == t_warm.str();
    for (std::size_t i = 0; i < n; ++i) {
      const std::string point = "point " + std::to_string(i);
      bool ok = !cold.from_cache[i] && cold.values[i].size() == campaign_->column_count();
      for (double v : cold.values[i]) ok = ok && finite_positive(v);
      if (!ok) b.fail(1, point + ": not simulated, or a column not finite and positive");
      if (!same_table || i >= warm.points.size() || !warm.from_cache[i] ||
          warm.values[i] != cold.values[i])
        b.fail(1, point + ": warm pass not served from the cache with the cold table");
    }
    cache_hit_ratio_ =
        n > 0 ? static_cast<double>(warm.cached) / static_cast<double>(n) : 0.0;
    double lat_near = 0.0;
    double lat_far = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const core::Scenario& s = cold.points[i].scenario;
      if (s.message_bytes != 4 || s.computing_cores != 0) continue;
      (s.comm_thread == core::Placement::kNearNic ? lat_near : lat_far) = cold.values[i][0];
    }
    std::ostringstream sum;
    sum << n << " points, cache hits " << warm.cached << "/" << n
        << "; 4 B latency alone, thread near " << lat_near << " us, far " << lat_far << " us";
    b.summary = sum.str();
  }

  core::CampaignOptions options(int jobs, const std::string& dir) const {
    core::CampaignOptions o;
    o.jobs = jobs;
    o.cache_dir = dir;
    o.override_base_seed = true;
    o.base_seed = base_seed_;
    return o;
  }

  std::string fresh_cache_dir() {
    const std::filesystem::path dir = std::filesystem::path(opt_.scratch) /
                                      ("cache-" + std::to_string(::getpid()) + "-" +
                                       std::to_string(cache_serial_++));
    std::filesystem::remove_all(dir);
    return dir.string();
  }

  Options opt_;
  std::uint64_t base_seed_;
  Recorder off_;
  Recorder* rec_ = &off_;  // where the evaluator's spans go this pass
  std::unique_ptr<core::Campaign> campaign_;
  std::vector<PointRecord> records_;  // per grid index, written by workers
  int parent_ = -1;                   // span the workers' point spans hang under
  int cache_serial_ = 0;
  double cache_hit_ratio_ = 0.0;
};

// ---- fabric workloads: shared helpers -----------------------------------------

/// Nodes 0..nodes-1 in ring order under a seeded placement: topology
/// groups (dragonfly groups, fat-tree leaves) in index order; inside a
/// group, each edge switch's hosts in a seeded order, dealt slot by slot
/// across the group's switches, so consecutive nodes sit on different
/// switches wherever the group has several.  The seed relabels hosts only
/// within a switch, which the fabric treats alike, so the simulated work of
/// a run does not depend on it and host-time spread across seeds is noise.
std::vector<int> seeded_node_order(const net::Topology& topo, int nodes, std::uint64_t seed) {
  // group -> its edge switches -> their hosts; hosts attach switch by switch.
  std::vector<std::vector<std::vector<int>>> groups(
      static_cast<std::size_t>(topo.group_count()));
  int last_switch = -1;
  for (int n = 0; n < nodes; ++n) {
    auto& switches = groups.at(static_cast<std::size_t>(topo.group_of_node(n)));
    if (topo.host_switch(n) != last_switch) switches.emplace_back();
    last_switch = topo.host_switch(n);
    switches.back().push_back(n);
  }
  std::uint64_t state = seed;
  auto shuffle = [&state](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[splitmix64(state) % i]);
  };
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(nodes));
  for (auto& switches : groups) {
    std::size_t slots = 0;
    for (auto& hosts : switches) {
      shuffle(hosts);
      slots = std::max(slots, hosts.size());
    }
    // Slot k walks the switches with the k-th stride coprime to their count,
    // so ring neighbours in different slots cross different links.
    const std::size_t n = switches.size();
    std::vector<std::size_t> strides;
    for (std::size_t m = 1; m <= n; ++m)
      if (std::gcd(m, n) == 1) strides.push_back(m);
    for (std::size_t slot = 0; slot < slots; ++slot)
      for (std::size_t j = 0; j < n; ++j) {
        const auto& hosts = switches[j * strides[slot % strides.size()] % n];
        if (slot < hosts.size()) order.push_back(hosts[slot]);
      }
  }
  return order;
}

/// `labels.size()` interleaved ring tenants over a seeded node order:
/// tenant t owns every labels.size()-th node starting at position t.
std::vector<core::JobSpec> ring_tenants(const net::Topology& topo, int nodes,
                                        std::uint64_t seed,
                                        const std::vector<std::string>& labels,
                                        std::size_t message_bytes, int iterations) {
  const std::vector<int> order = seeded_node_order(topo, nodes, seed);
  std::vector<core::JobSpec> jobs(labels.size());
  for (std::size_t t = 0; t < labels.size(); ++t) {
    jobs[t].label = labels[t];
    jobs[t].pattern = core::TrafficPattern::kRing;
    jobs[t].message_bytes = message_bytes;
    jobs[t].iterations = iterations;
  }
  for (std::size_t i = 0; i < order.size(); ++i) jobs[i % labels.size()].nodes.push_back(order[i]);
  return jobs;
}

/// Payload a ring tenant offers in one run.
double offered_bytes(const core::JobSpec& job) {
  const std::size_t streams = job.nodes.size() >= 2 ? job.nodes.size() : 0;
  return static_cast<double>(streams) * static_cast<double>(job.iterations) *
         static_cast<double>(job.message_bytes);
}

/// Why one fabric run is wrong, or "" when it is right: every active tenant
/// delivered exactly what it offered, silent tenants nothing, and every
/// reported figure is finite and positive.
std::string fabric_error(const core::FabricReport& r, const std::vector<core::JobSpec>& jobs,
                         const std::vector<std::string>& active) {
  std::string why;
  for (const core::JobSpec& job : jobs) {
    const bool on =
        active.empty() || std::find(active.begin(), active.end(), job.label) != active.end();
    const core::TenantReport* t = r.tenant(job.label);
    const double expected = on ? offered_bytes(job) : 0.0;
    if (t == nullptr) {
      why = "tenant " + job.label + " missing";
    } else if (t->bytes != expected) {
      why = "tenant " + job.label + " delivered " + std::to_string(t->bytes) + " of " +
            std::to_string(expected) + " bytes";
    } else if (on && !(finite_positive(t->finish) && finite_positive(t->achieved_bw) &&
                       finite_positive(t->delivery_latency.median))) {
      why = "tenant " + job.label + " has a non-positive figure";
    }
    if (!why.empty()) break;
  }
  if (why.empty() && !(finite_positive(r.elapsed) && finite_positive(r.aggregate_bw)))
    why = "elapsed or aggregate bandwidth not positive";
  return why;
}

core::Scenario fabric_scenario(net::Topology topo, std::vector<core::JobSpec> jobs) {
  core::Scenario s;
  s.topology = std::move(topo);
  s.jobs = std::move(jobs);
  return s;
}

int node_count(const core::Scenario& s) {
  int nodes = 0;
  for (const core::JobSpec& j : s.jobs)
    for (int n : j.nodes) nodes = std::max(nodes, n + 1);
  return nodes;
}

// ---- fabric_sharded ----------------------------------------------------------
//
// Interleaved ring tenants over a 4096-node dragonfly (16 groups x 16
// routers x 16 hosts) and a 4096-node fat-tree, each through
// FabricLab::run_sharded(workers): a fluid-only model where the max-min
// solver, shard windows and boundary-proxy exchange do the work.

class FabricSharded final : public Workload {
 public:
  explicit FabricSharded(const Options& opt) : opt_(opt) {}

  void setup(Recorder& rec) override {
    scenarios_.clear();
    const int nodes = opt_.tiny ? 64 : 4096;
    std::vector<net::Topology> topos;
    {
      Scope s(rec, "net.topology.build");
      topos.push_back(opt_.tiny ? net::Topology::dragonfly(4, 4, 4)
                                : net::Topology::dragonfly(16, 16, 16));
      topos.push_back(opt_.tiny ? net::Topology::fat_tree(12) : net::Topology::fat_tree(92));
    }
    for (net::Topology& topo : topos) {
      std::vector<core::JobSpec> jobs =
          ring_tenants(topo, nodes, opt_.seed, {"ring0", "ring1"}, std::size_t{1} << 20, 2);
      const core::Scenario& s =
          scenarios_.emplace_back(fabric_scenario(std::move(topo), std::move(jobs)));
      {
        Scope span(rec, "sim.partition.partition_groups");
        const std::vector<int> carve =
            sim::partition_groups(s.topology.group_graph(nodes), opt_.workers);
        (void)carve;
      }
      // run_sharded's fabric: the shape it routes on plus one replica per shard.
      for (int replica = 0; replica <= opt_.workers; ++replica) {
        Scope span(rec, "net.fabric_graph.build");
        net::FabricGraph graph(s.topology, s.network, nodes);
      }
    }
  }

  Batch run_batch(Recorder& rec) override {
    Batch b;
    Stopwatch sw;
    double sharded_s = 0.0;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const core::Scenario& s = scenarios_[i];
      const std::string what = topo_name(s.topology) + " run_sharded(" +
                               std::to_string(opt_.workers) + ")";
      ++b.attempted;
      try {
        core::FabricLab lab(s);
        const auto t0 = Clock::now();
        core::FabricReport r;
        {
          Scope span(rec, "core.fabric.run_sharded");
          r = lab.run_sharded(opt_.workers);
        }
        const double took = seconds_since(t0);
        sharded_s += took;
        const std::string why = fabric_error(r, s.jobs, {});
        if (!why.empty()) b.fail(1, what + ": " + why);
        b.counts["sim.engine.events"] += static_cast<double>(r.events);
        b.counts["sim.maxmin.visits"] += static_cast<double>(r.solver_flow_visits);
        b.counts["sim.shard.windows"] += static_cast<double>(r.windows);
        b.counts["sim.shard.exchanges"] += static_cast<double>(r.exchanges);
        b.counts["net.fabric.routes"] += static_cast<double>(r.routes);
        std::ostringstream sum;
        sum << what << ": " << took << " s host, " << r.populated_shards << " shards, "
            << r.boundary_links << " boundary links, " << r.windows << " windows, "
            << r.events << " events, elapsed " << trace::format_time(r.elapsed);
        b.summary += (b.summary.empty() ? "" : "; ") + sum.str();
      } catch (const std::exception& e) {
        b.fail(1, what + " threw: " + e.what());
      }
    }
    sw.stop(b);
    b.times["sharded_s"] = sharded_s;
    return b;
  }

  void reference_metrics(const Batch& untraced, Values& out) override {
    double serial = 0.0;
    for (const core::Scenario& s : scenarios_) {
      core::FabricLab lab(s);
      const auto t0 = Clock::now();
      (void)lab.run_sharded(1);
      serial += seconds_since(t0);
    }
    out["sim.shard.speedup"] = serial / untraced.times.at("sharded_s");
  }

  void traced_metrics(const std::vector<Span>& setup, const std::vector<Span>&,
                      const Batch& traced, Values& out) override {
    out["sim.partition.ms"] = span_seconds(setup, "sim.partition.partition_groups") * 1e3;
    out["net.topology.build_ms"] = (span_seconds(setup, "net.topology.build") +
                                    span_seconds(setup, "net.fabric_graph.build")) *
                                   1e3;
    out["net.fabric.routes"] = traced.counts.at("net.fabric.routes");
  }

 private:
  static std::string topo_name(const net::Topology& t) {
    return t.kind() == net::Topology::Kind::kDragonfly ? "dragonfly" : "fat-tree";
  }

  Options opt_;
  std::vector<core::Scenario> scenarios_;
};

// ---- fabric_serial -----------------------------------------------------------
//
// A victim and an aggressor ring, interleaved over a 1024-node dragonfly
// (16 x 8 x 8) and a 1024-node fat-tree under adaptive routing, through the
// serial FabricLab::run(): one global solve with rendezvous/NIC-DMA stages
// and congestion-aware routing.  Per topology: the victim alone and victim +
// aggressor (the slowdown-matrix cells), plus victim + aggressor under
// minimal routing as the no-reroute reference.

class FabricSerial final : public Workload {
 public:
  explicit FabricSerial(const Options& opt) : opt_(opt) {}

  void setup(Recorder& rec) override {
    adaptive_.clear();
    minimal_.clear();
    route_calls_ = 0;
    const int nodes = opt_.tiny ? 64 : 1024;
    std::vector<net::Topology> topos;
    {
      Scope s(rec, "net.topology.build");
      topos.push_back(opt_.tiny ? net::Topology::dragonfly(4, 4, 4)
                                : net::Topology::dragonfly(16, 8, 8));
      topos.push_back(opt_.tiny ? net::Topology::fat_tree(12) : net::Topology::fat_tree(46));
      for (net::Topology& t : topos) t.routing(net::RoutingPolicy::kAdaptive);
    }
    for (net::Topology& topo : topos) {
      std::vector<core::JobSpec> jobs = ring_tenants(topo, nodes, opt_.seed,
                                                     {"victim", "aggressor"},
                                                     std::size_t{1} << 20, 1);
      net::Topology minimal = topo;
      minimal.routing(net::RoutingPolicy::kMinimal);
      adaptive_.push_back(fabric_scenario(topo, jobs));
      minimal_.push_back(fabric_scenario(std::move(minimal), std::move(jobs)));
    }
    for (const std::vector<core::Scenario>* set : {&adaptive_, &minimal_})
      for (const core::Scenario& s : *set) {
        std::unique_ptr<net::Cluster> cluster;
        {
          Scope span(rec, "net.cluster.build");
          cluster = std::make_unique<net::Cluster>(net::ClusterSpec{
              s.machine, s.network, s.topology, node_count(s), s.seed});
        }
        {
          Scope span(rec, "net.route.fabric_path");
          for (const core::JobSpec& job : s.jobs)
            for (std::size_t r = 0; r < job.nodes.size(); ++r) {
              (void)cluster->fabric_path(job.nodes[r], job.nodes[(r + 1) % job.nodes.size()]);
              ++route_calls_;
            }
        }
        Scope span(rec, "net.cluster.teardown");
        cluster.reset();
      }
  }

  Batch run_batch(Recorder& rec) override {
    Batch b;
    Stopwatch sw;
    for (std::size_t i = 0; i < adaptive_.size(); ++i) {
      const std::string topo = adaptive_[i].topology.kind() == net::Topology::Kind::kDragonfly
                                   ? "dragonfly"
                                   : "fat-tree";
      const core::FabricReport* alone = nullptr;
      const core::FabricReport* together = nullptr;
      core::FabricReport reports[3];
      const struct {
        const core::Scenario* scenario;
        std::vector<std::string> active;
        const char* what;
      } runs[3] = {{&adaptive_[i], {"victim"}, "adaptive victim alone"},
                   {&adaptive_[i], {}, "adaptive victim+aggressor"},
                   {&minimal_[i], {}, "minimal victim+aggressor"}};
      for (int k = 0; k < 3; ++k) {
        const std::string what = topo + " " + runs[k].what;
        ++b.attempted;
        try {
          auto lab = std::make_unique<core::FabricLab>(*runs[k].scenario);
          {
            Scope span(rec, "core.fabric.run");
            reports[k] = lab->run(runs[k].active);
          }
          std::string why = fabric_error(reports[k], runs[k].scenario->jobs, runs[k].active);
          if (why.empty() && k == 1 && reports[k].reroutes == 0)
            why = "adaptive routing never rerouted";
          if (why.empty() && k == 2 && reports[k].reroutes != 0)
            why = "minimal routing rerouted";
          if (!why.empty()) b.fail(1, what + ": " + why);
          const sim::MaxMinSolver::Stats& st = lab->cluster().model().solver().stats();
          b.counts["sim.engine.events"] +=
              static_cast<double>(lab->cluster().engine().events_dispatched());
          b.counts["sim.maxmin.resolves"] += static_cast<double>(st.solves);
          b.counts["sim.maxmin.visits"] += static_cast<double>(st.flow_visits);
          b.counts["net.fabric.routes"] += static_cast<double>(reports[k].routes);
          b.counts["net.fabric.reroutes"] += static_cast<double>(reports[k].reroutes);
          if (k == 0) alone = &reports[0];
          if (k == 1) together = &reports[1];
          Scope span(rec, "core.fabric.teardown");
          lab.reset();
        } catch (const std::exception& e) {
          b.fail(1, what + " threw: " + e.what());
        }
      }
      if (alone != nullptr && together != nullptr) {
        const double t_alone = alone->tenant("victim")->finish;
        const double t_both = together->tenant("victim")->finish;
        std::ostringstream sum;
        sum << topo << " victim slowdown " << (t_both / t_alone) << " ("
            << together->reroutes << " adaptive reroutes)";
        b.summary += (b.summary.empty() ? "" : "; ") + sum.str();
      }
    }
    sw.stop(b);
    return b;
  }

  void reference_metrics(const Batch&, Values&) override {}

  void traced_metrics(const std::vector<Span>& setup, const std::vector<Span>&,
                      const Batch& traced, Values& out) override {
    out["net.topology.build_ms"] =
        (span_seconds(setup, "net.topology.build") + span_seconds(setup, "net.cluster.build")) *
        1e3;
    out["net.route.ns_per_path"] =
        route_calls_ > 0
            ? span_seconds(setup, "net.route.fabric_path") * 1e9 /
                  static_cast<double>(route_calls_)
            : 0.0;
    out["net.fabric.routes"] = traced.counts.at("net.fabric.routes");
    out["net.fabric.reroutes"] = traced.counts.at("net.fabric.reroutes");
  }

 private:
  Options opt_;
  std::vector<core::Scenario> adaptive_;
  std::vector<core::Scenario> minimal_;
  std::uint64_t route_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, const Options& opt) {
  if (name == "paper_protocol") return std::make_unique<PaperProtocol>(opt);
  if (name == "fabric_sharded") return std::make_unique<FabricSharded>(opt);
  if (name == "fabric_serial") return std::make_unique<FabricSerial>(opt);
  return nullptr;
}

}  // namespace perfbench
