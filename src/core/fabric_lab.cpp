#include "core/fabric_lab.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/fabric_graph.hpp"
#include "obs/metrics.hpp"
#include "sim/coro.hpp"
#include "sim/flow_model.hpp"
#include "sim/maxmin.hpp"
#include "sim/partition.hpp"
#include "sim/shard.hpp"

namespace cci::core {

namespace {

/// One unidirectional bulk stream of a tenant.
struct StreamSpec {
  int src_rank = 0;  ///< run()'s world rank: every job's ranks, job order
  int dst_rank = 0;
  int src_node = 0;
  int dst_node = 0;
  std::size_t bytes = 0;
  int iterations = 0;
  double gap = 0.0;  ///< open-loop injection period (0 = back-to-back)
  int tag = 0;
  std::uint64_t buffer_id = 0;
  std::size_t tenant = 0;
};

struct TenantAccum {
  double bytes = 0.0;
  double finish = 0.0;
  std::vector<double> latencies;
};

/// Per-link utilization peaks from a flow model's load-change stream.  The
/// link resources are the model's last, resource link0 + i being topology
/// link `link[i]`: every link for run(), the materialized ones for a
/// run_sharded() replica.  A sample reads only the links whose load changed
/// since the previous sample (the first reads every link resource): any
/// other link would read what its peak already includes, since a reading
/// depends on the load alone (run() never changes a link capacity;
/// run_sharded() divides by the base one).
struct LinkPeaks {
  std::size_t link0 = 0;
  std::vector<int> link;     ///< per link resource: its topology link
  std::vector<double> peak;  ///< per topology link
  std::uint64_t reads = 0;   ///< link loads read

  /// Map the next link resource, `res`, to topology link li.
  void add(std::size_t res, int li) {
    if (link.empty()) link0 = res;
    assert(res == link0 + link.size());
    link.push_back(li);
  }

  /// `read(li)`: topology link li's utilization now.
  template <typename Read>
  void sample(sim::FlowModel& model, Read&& read) {
    model.drain_load_changes([&](std::size_t r) {
      if (r < link0 || r - link0 >= link.size()) return;
      const int li = link[r - link0];
      double& p = peak[static_cast<std::size_t>(li)];
      p = std::max(p, read(static_cast<std::size_t>(li)));
      ++reads;
    });
  }
};

/// Shared per-run state the stream coroutines write into.  Owned by run()
/// and alive until the engine drains, so raw pointers in coroutines are
/// safe (same lifetime discipline as the labs' teams).
struct RunState {
  std::vector<TenantAccum> tenants;
  std::span<sim::Resource* const> links;
  sim::FlowModel* model = nullptr;
  LinkPeaks peaks;
  obs::Registry* reg = nullptr;  ///< Registry::global() at run start
  /// net.<link>.utilization per link.  Bound when the run starts with the
  /// registry on, otherwise by the first sample that finds it on: a
  /// disabled registry never sees per-link names.
  std::vector<obs::Histogram*> link_hist;
  std::uint64_t remaining = 0;  ///< deliveries still expected this run

  void bind_link_hist() {
    link_hist.reserve(links.size());
    for (sim::Resource* r : links)
      link_hist.push_back(&reg->histogram("net." + r->name() + ".utilization"));
  }

  /// The histograms record every link at every sample; the peaks read
  /// only the links whose load changed.
  void sample_links() {
    if (link_hist.empty() && reg->enabled()) bind_link_hist();
    for (std::size_t li = 0; li < link_hist.size(); ++li)
      link_hist[li]->record(links[li]->utilization());
    peaks.sample(*model, [this](std::size_t li) { return links[li]->utilization(); });
  }
};

sim::Coro sender(mpi::World& w, StreamSpec s, int data_numa) {
  mpi::MsgView msg{s.bytes, data_numa, s.buffer_id};
  for (int i = 0; i < s.iterations; ++i) {
    const double due = static_cast<double>(i) * s.gap;
    if (w.engine().now() < due) co_await w.engine().sleep_until(due);
    co_await *w.isend(s.src_rank, s.dst_rank, s.tag, msg);
  }
}

sim::Coro receiver(mpi::World& w, StreamSpec s, int data_numa, RunState* st) {
  mpi::MsgView msg{s.bytes, data_numa, s.buffer_id + 0x1000};
  TenantAccum& acc = st->tenants[s.tenant];
  for (int i = 0; i < s.iterations; ++i) {
    co_await *w.irecv(s.dst_rank, s.src_rank, s.tag, msg);
    const double now = w.engine().now();
    acc.bytes += static_cast<double>(s.bytes);
    acc.finish = std::max(acc.finish, now);
    acc.latencies.push_back(now - static_cast<double>(i) * s.gap);
    // Sample every fabric link at this delivery: deterministic (event
    // order is), and concentrated where utilization actually changes.
    st->sample_links();
    --st->remaining;
  }
}

/// Symmetric streams register and complete their flows at identical
/// instants, so delivery-event samples can land exactly where every flow
/// has just deregistered and the fabric reads idle.  This probe samples at
/// the midpoints of the injection grid — deterministically mid-flight —
/// and keeps going until the last expected delivery (transfers stretch
/// far past their injection slot once links congest, so a fixed probe
/// count would miss exactly the interesting part of the run).  Pure timer
/// events: it never touches a flow or the RNG.
sim::Coro link_probe(sim::Engine& eng, double period, RunState* st) {
  for (int i = 0; st->remaining > 0; ++i) {
    co_await eng.sleep_until((static_cast<double>(i) + 0.5) * period);
    if (st->remaining == 0) break;
    st->sample_links();
  }
}

/// The scenario's tenants — one default two-node pair when it lists none —
/// each checked, naming the tenant and field of the first violation.  An
/// unchecked negative iteration count would wrap the delivery countdown
/// and a non-positive load would silently mean back-to-back injection.
std::vector<JobSpec> checked_jobs(const Scenario& scenario) {
  std::vector<JobSpec> jobs = scenario.jobs;
  if (jobs.empty()) {
    JobSpec j;
    j.nodes = {0, 1};
    jobs.push_back(std::move(j));
  }
  for (const JobSpec& job : jobs) {
    const auto reject = [&job](const std::string& what) {
      throw std::invalid_argument("FabricLab: tenant '" + job.label + "': " + what);
    };
    if (job.iterations < 1)
      reject("iterations must be >= 1, got " + std::to_string(job.iterations));
    if (!std::isfinite(job.offered_load) || job.offered_load <= 0.0)
      reject("offered_load must be finite and > 0, got " +
             std::to_string(job.offered_load));
    // A zero-byte stream injects back-to-back, and its zero gap would
    // cancel the link probe grid.
    if (job.message_bytes == 0) reject("message_bytes must be >= 1, got 0");
    if (job.nodes.empty()) reject("nodes must not be empty");
    const int hosts = scenario.topology.max_hosts();  // 0 = unbounded
    for (int n : job.nodes) {
      if (n < 0) reject("nodes holds negative node index " + std::to_string(n));
      if (hosts > 0 && n >= hosts)
        reject("nodes holds node index " + std::to_string(n) + ", but the topology attaches " +
               std::to_string(hosts) + " hosts");
    }
  }
  return jobs;
}

/// Cluster size the tenants need (at least the default pair's two nodes).
int node_count(const std::vector<JobSpec>& jobs) {
  int nodes = 2;
  for (const JobSpec& j : jobs)
    for (int n : j.nodes) nodes = std::max(nodes, n + 1);
  return nodes;
}

/// Open-loop injection period of one job's streams.
double injection_gap(const JobSpec& job, double wire_rate) {
  return static_cast<double>(job.message_bytes) / (wire_rate * job.offered_load);
}

/// Every tenant's streams in job order, each job's under its traffic
/// pattern.  Tags and buffer ids count the streams of every job, so stream
/// identities are the same whichever subset of tenants a run drives.
std::vector<StreamSpec> plan_streams(const std::vector<JobSpec>& jobs, double wire_rate) {
  std::vector<StreamSpec> streams;
  int first_rank = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& job = jobs[j];
    const int n = static_cast<int>(job.nodes.size());
    const auto add = [&](int src, int dst) {
      StreamSpec s;
      s.src_rank = first_rank + src;
      s.dst_rank = first_rank + dst;
      s.src_node = job.nodes[static_cast<std::size_t>(src)];
      s.dst_node = job.nodes[static_cast<std::size_t>(dst)];
      s.bytes = job.message_bytes;
      s.iterations = job.iterations;
      s.gap = injection_gap(job, wire_rate);
      s.tag = 1000 + 2 * static_cast<int>(streams.size());
      s.buffer_id = 0x5000 + static_cast<std::uint64_t>(streams.size());
      s.tenant = j;
      streams.push_back(s);
    };
    if (job.pattern == TrafficPattern::kPairs) {
      for (int r = 0; r + 1 < n; r += 2) add(r, r + 1);
    } else if (n >= 2) {  // kRing
      for (int r = 0; r < n; ++r) add(r, (r + 1) % n);
    }
    first_rank += n;
  }
  return streams;
}

/// Tenant rows (job order) and the report totals, from per-tenant
/// accumulators.
void add_tenant_rows(FabricReport& report, const std::vector<JobSpec>& jobs,
                     std::vector<TenantAccum>& acc) {
  report.tenants.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    TenantReport t;
    t.label = jobs[j].label;
    t.bytes = acc[j].bytes;
    t.finish = acc[j].finish;
    t.achieved_bw = t.finish > 0.0 ? t.bytes / t.finish : 0.0;
    t.delivery_latency = trace::Stats::of(std::move(acc[j].latencies));
    report.total_bytes += t.bytes;
    report.elapsed = std::max(report.elapsed, t.finish);
    report.tenants.push_back(std::move(t));
  }
  report.aggregate_bw = report.elapsed > 0.0 ? report.total_bytes / report.elapsed : 0.0;
}

}  // namespace

const TenantReport* FabricReport::tenant(std::string_view label) const {
  for (const TenantReport& t : tenants)
    if (t.label == label) return &t;
  return nullptr;
}

FabricLab::FabricLab(Scenario scenario) : scenario_(std::move(scenario)) {}

FabricLab::~FabricLab() = default;

FabricReport FabricLab::run(std::string_view only) {
  std::vector<std::string> labels;
  if (!only.empty()) labels.emplace_back(only);
  return run(labels);
}

FabricReport FabricLab::run(const std::vector<std::string>& labels) {
  const std::vector<JobSpec> jobs = checked_jobs(scenario_);
  const std::vector<StreamSpec> streams = plan_streams(jobs, scenario_.network.wire_bw);

  cluster_ = std::make_unique<net::Cluster>(net::ClusterSpec{
      scenario_.machine, scenario_.network, scenario_.topology, node_count(jobs),
      scenario_.seed});
  cluster_->enable_route_trace(true);

  // All jobs' ranks exist even when `labels` restricts the traffic, so the
  // alone/together runs share placement, comm cores and routing state.
  std::vector<mpi::RankConfig> ranks;
  for (const JobSpec& job : jobs)
    for (int node : job.nodes) ranks.push_back({node, -1});
  world_ = std::make_unique<mpi::World>(*cluster_, std::move(ranks));

  RunState st;
  st.tenants.resize(jobs.size());
  st.links = cluster_->fabric().link_resources();
  st.model = &cluster_->model();
  st.peaks.peak.assign(st.links.size(), 0.0);
  for (std::size_t li = 0; li < st.links.size(); ++li)
    st.peaks.add(st.links[li]->index(), static_cast<int>(li));
  assert(st.links.empty() ||
         st.links.back()->index() + 1 == st.model->solver().resource_count());
  st.reg = &obs::Registry::global();
  if (st.reg->enabled()) st.bind_link_hist();

  const int numa = scenario_.machine.nic_numa;
  for (const StreamSpec& s : streams) {
    const std::string& label = jobs[s.tenant].label;
    if (!labels.empty() && std::find(labels.begin(), labels.end(), label) == labels.end())
      continue;
    st.remaining += static_cast<std::uint64_t>(s.iterations);
    world_->engine().spawn(sender(*world_, s, numa));
    world_->engine().spawn(receiver(*world_, s, numa, &st));
  }
  // The probe grid derives from every tenant — silenced ones too — so the
  // alone/together runs of the slowdown matrix sample identical instants.
  if (!st.links.empty() && st.remaining > 0) {
    double period = 0.0;
    for (const StreamSpec& s : streams) period = period > 0.0 ? std::min(period, s.gap) : s.gap;
    if (period > 0.0)
      world_->engine().spawn(link_probe(world_->engine(), period, &st));
  }
  cluster_->engine().run();

  FabricReport report;
  add_tenant_rows(report, jobs, st.tenants);
  report.links.reserve(st.links.size());
  for (std::size_t li = 0; li < st.links.size(); ++li)
    report.links.push_back({st.links[li]->name(), st.peaks.peak[li]});
  report.link_reads = st.peaks.reads;
  // Routing counters from the always-on route trace, so they are exact
  // whether or not the obs registry is enabled.  Decisions evicted from
  // the trace ring still count as routes; only their reroute class is
  // unknown (minimal-routing runs never reroute anyway).
  report.routes = cluster_->route_trace_dropped();
  const net::FabricGraph& fabric = cluster_->fabric();
  for (const net::Cluster::RouteChoice& rc : cluster_->route_trace()) {
    ++report.routes;
    if (rc.via != fabric.minimal_via(rc.src, rc.dst)) ++report.reroutes;
  }
  return report;
}

namespace {

/// Per-shard state of a run_sharded() fluid simulation.  Built and torn
/// down inside with_each_shard() so pooled frames and metric handles bind
/// to the worker thread.
struct FluidShard {
  std::unique_ptr<net::FabricGraph> fabric;
  std::unique_ptr<sim::FlowModel> model;
  std::vector<TenantAccum> tenants;
  LinkPeaks links;
  /// The resource routes of this shard's streams, end to end, in stream
  /// order; each stream coroutine reads its own slice.
  std::vector<sim::Resource*> paths;

  /// Local fabric peak at a delivery event.  Loads are read against the
  /// *base* capacity: a boundary replica throttled by remote load would
  /// otherwise read utilization ~1 at any load.
  void sample_links() {
    links.sample(*model, [this](std::size_t li) {
      const int k = fabric->link_key(static_cast<int>(li));
      return fabric->at(k)->load() / fabric->base_capacity(k);
    });
  }
};

/// One open-loop fluid stream: each message is one activity demanding
/// every resource of its static minimal route, injected on run()'s
/// schedule (sleep to the slot, then send to completion) with delivery
/// accounting at completion.
sim::Coro fluid_stream(sim::Engine& eng, FluidShard* fs, StreamSpec s,
                       std::span<sim::Resource* const> path, sim::LabelId label) {
  TenantAccum& acc = fs->tenants[s.tenant];
  for (int i = 0; i < s.iterations; ++i) {
    const double due = static_cast<double>(i) * s.gap;
    if (eng.now() < due) co_await eng.sleep_until(due);
    sim::ActivitySpec spec;
    spec.label = label;
    spec.work = static_cast<double>(s.bytes);
    spec.demands.reserve(path.size());
    for (sim::Resource* r : path) spec.demands.push_back({r, 1.0});
    co_await *fs->model->start(std::move(spec));
    const double now = eng.now();
    acc.bytes += static_cast<double>(s.bytes);
    acc.finish = std::max(acc.finish, now);
    acc.latencies.push_back(now - static_cast<double>(i) * s.gap);
    fs->sample_links();
  }
}

}  // namespace

FabricReport FabricLab::run_sharded(int shards) {
  if (shards < 1)
    throw std::invalid_argument("FabricLab::run_sharded: shards must be >= 1, got " +
                                std::to_string(shards));
  const std::vector<JobSpec> jobs = checked_jobs(scenario_);
  const int nodes = node_count(jobs);

  const net::Topology& topo = scenario_.topology;
  if (topo.routing() != net::RoutingPolicy::kMinimal)
    throw std::invalid_argument(
        "FabricLab::run_sharded: adaptive routing needs global utilization and "
        "the cluster RNG; sharded fabrics route minimally");
  net::FabricGraph shape(topo, scenario_.network, nodes);

  // run()'s streams, each owned by its source node's topology group's
  // shard.  Stream i's static minimal route is route_keys[route_at[i] ..
  // route_at[i + 1]), one flat table for every stream.
  const std::vector<int> group_shard =
      sim::partition_groups(topo.group_graph(nodes), shards);
  const std::vector<StreamSpec> streams = plan_streams(jobs, scenario_.network.wire_bw);
  std::vector<int> stream_shard;
  stream_shard.reserve(streams.size());
  std::vector<int> route_keys;
  std::vector<std::size_t> route_at;
  route_at.reserve(streams.size() + 1);
  route_at.push_back(0);
  for (const StreamSpec& spec : streams) {
    const int g = topo.group_of_node(spec.src_node);
    stream_shard.push_back(g >= 0 ? group_shard[static_cast<std::size_t>(g)] : 0);
    shape.minimal_path(spec.src_node, spec.dst_node, route_keys);
    route_at.push_back(route_keys.size());
  }
  const auto route = [&](std::size_t i) {
    return std::span<const int>(route_keys).subspan(route_at[i], route_at[i + 1] - route_at[i]);
  };

  // Boundary set: keys whose static routes span several shards.
  std::vector<int> first_user(static_cast<std::size_t>(shape.key_count()), -1);
  for (std::size_t i = 0; i < streams.size(); ++i)
    for (int key : route(i)) {
      int& u = first_user[static_cast<std::size_t>(key)];
      if (u == -1)
        u = stream_shard[i];
      else if (u != stream_shard[i])
        u = -2;  // shared across shards: boundary proxy
    }
  bool any_boundary = false;
  for (int u : first_user) any_boundary = any_boundary || u == -2;

  // Window size: the cheapest link class the carve actually cuts.  With no
  // boundary the scenario is shard-closed and runs in a single window.
  sim::ShardGroup::Options opts;
  opts.shards = shards;
  opts.lookahead = any_boundary
                       ? topo.min_cut_delay(scenario_.network, topo.cut_links(group_shard))
                       : sim::kNever;
  sim::ShardGroup group(opts);

  std::vector<int> boundary_id(static_cast<std::size_t>(shape.key_count()), -1);
  std::vector<std::vector<int>> boundary_users;
  for (int key = 0; key < shape.key_count(); ++key)
    if (first_user[static_cast<std::size_t>(key)] == -2) {
      boundary_id[static_cast<std::size_t>(key)] =
          group.add_boundary_link(shape.base_capacity(key));
      boundary_users.emplace_back();
    }
  for (std::size_t i = 0; i < streams.size(); ++i)
    for (int key : route(i)) {
      const int id = boundary_id[static_cast<std::size_t>(key)];
      if (id < 0) continue;
      std::vector<int>& users = boundary_users[static_cast<std::size_t>(id)];
      if (std::find(users.begin(), users.end(), stream_shard[i]) == users.end())
        users.push_back(stream_shard[i]);
    }
  for (std::vector<int>& users : boundary_users) std::sort(users.begin(), users.end());

  // Per-shard build, on every worker at once: fabric replica, flow model,
  // stream coroutines.  Each job writes only its own shard's state and
  // reads the shared topology, jobs and streams.  A replica is lean: it
  // materializes, in key order, only the keys its own streams route over
  // (boundary keys included).  A key it leaves out would be a flowless
  // singleton component that never gets dirty, so the solves, and every
  // result, keep their bits.
  std::vector<std::unique_ptr<FluidShard>> ctx(static_cast<std::size_t>(shards));
  group.with_each_shard([&](int s, sim::Engine& eng) {
    auto fs = std::make_unique<FluidShard>();
    fs->fabric = std::make_unique<net::FabricGraph>(topo, scenario_.network, nodes);
    fs->model = std::make_unique<sim::FlowModel>(eng);
    std::vector<char> routed(static_cast<std::size_t>(shape.key_count()), 0);
    std::size_t hops = 0;
    for (std::size_t i = 0; i < streams.size(); ++i)
      if (stream_shard[i] == s)
        for (int key : route(i)) {
          routed[static_cast<std::size_t>(key)] = 1;
          ++hops;
        }
    fs->links.peak.assign(topo.links().size(), 0.0);
    for (int key = 0; key < shape.key_count(); ++key) {
      if (routed[static_cast<std::size_t>(key)] == 0) continue;
      fs->fabric->materialize(*fs->model, key);
      if (key >= shape.link_key(0))
        fs->links.add(fs->fabric->at(key)->index(), key - shape.link_key(0));
    }
    fs->tenants.resize(jobs.size());
    std::vector<sim::LabelId> tenant_label(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
      tenant_label[j] = eng.intern("fabric." + jobs[j].label);
    // Sized once, so the slices the coroutines hold stay valid.
    fs->paths.reserve(hops);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (stream_shard[i] != s) continue;
      const std::size_t first = fs->paths.size();
      for (int key : route(i)) fs->paths.push_back(fs->fabric->at(key));
      eng.spawn(fluid_stream(
          eng, fs.get(), streams[i],
          std::span<sim::Resource* const>(fs->paths).subspan(first, fs->paths.size() - first),
          tenant_label[streams[i].tenant]));
    }
    ctx[static_cast<std::size_t>(s)] = std::move(fs);
  });

  // Bind boundary replicas (coordinator side, workers idle between jobs).
  for (int key = 0; key < shape.key_count(); ++key) {
    const int id = boundary_id[static_cast<std::size_t>(key)];
    if (id < 0) continue;
    for (int s : boundary_users[static_cast<std::size_t>(id)])
      group.bind_boundary(id, s, ctx[static_cast<std::size_t>(s)]->fabric->at(key));
  }

  // Cross-shard peaks of boundary links: a replica only sees local load, so
  // the barrier probe sums every sharer's load while workers are parked.
  struct LinkProbe {
    int li = 0;
    int key = 0;
    const std::vector<int>* users = nullptr;
  };
  std::vector<LinkProbe> link_probes;
  std::vector<double> boundary_link_peak(topo.links().size(), 0.0);
  for (std::size_t li = 0; li < topo.links().size(); ++li) {
    const int key = shape.link_key(static_cast<int>(li));
    const int id = boundary_id[static_cast<std::size_t>(key)];
    if (id >= 0)
      link_probes.push_back({static_cast<int>(li), key,
                             &boundary_users[static_cast<std::size_t>(id)]});
  }
  if (!link_probes.empty())
    group.set_barrier_probe([&](sim::Time) {
      for (const LinkProbe& p : link_probes) {
        double load = 0.0;
        for (int s : *p.users)
          load += ctx[static_cast<std::size_t>(s)]->fabric->at(p.key)->load();
        double& peak = boundary_link_peak[static_cast<std::size_t>(p.li)];
        peak = std::max(peak, load / shape.base_capacity(p.key));
      }
    });

  group.run();
  group.merge_obs(obs::Registry::global());

  FabricReport report;
  report.shards = shards;
  report.boundary_links = group.boundary_links();
  report.windows = group.stats().windows;
  report.exchanges = group.stats().exchanges;
  {
    std::vector<int> streams_on(static_cast<std::size_t>(shards), 0);
    for (int sh : stream_shard) ++streams_on[static_cast<std::size_t>(sh)];
    for (int c : streams_on) report.populated_shards += c > 0 ? 1 : 0;
  }
  // Shard accumulators merged in shard order.  Stats::of sorts, so the
  // shard-order concatenation of latencies is harmless.
  std::vector<TenantAccum> merged(jobs.size());
  for (int s = 0; s < shards; ++s)
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const TenantAccum& a = ctx[static_cast<std::size_t>(s)]->tenants[j];
      merged[j].bytes += a.bytes;
      merged[j].finish = std::max(merged[j].finish, a.finish);
      merged[j].latencies.insert(merged[j].latencies.end(), a.latencies.begin(),
                                 a.latencies.end());
    }
  add_tenant_rows(report, jobs, merged);

  // Link peaks: delivery-event samples plus the barrier probe.
  report.links.reserve(topo.links().size());
  for (std::size_t li = 0; li < topo.links().size(); ++li) {
    double peak = boundary_link_peak[li];
    for (int s = 0; s < shards; ++s)
      peak = std::max(peak, ctx[static_cast<std::size_t>(s)]->links.peak[li]);
    report.links.push_back({shape.name(shape.link_key(static_cast<int>(li))), peak});
  }
  // Minimal routing: decisions are a pure function of the streams (run()'s
  // note_route fires once per cross-switch message).
  for (const StreamSpec& st : streams)
    if (topo.kind() != net::Topology::Kind::kSingleSwitch &&
        topo.host_switch(st.src_node) != topo.host_switch(st.dst_node))
      report.routes += static_cast<std::uint64_t>(st.iterations);
  for (int s = 0; s < shards; ++s) {
    report.replica_resources += ctx[static_cast<std::size_t>(s)]->model->solver().resource_count();
    report.solver_flow_visits +=
        ctx[static_cast<std::size_t>(s)]->model->solver().stats().flow_visits;
    report.link_reads += ctx[static_cast<std::size_t>(s)]->links.reads;
    report.events += group.engine(s).events_dispatched();
  }

  // Tear down on the owning workers, all at once (pooled frames are
  // thread-affine).
  group.with_each_shard([&](int s, sim::Engine&) { ctx[static_cast<std::size_t>(s)].reset(); });
  return report;
}

}  // namespace cci::core
