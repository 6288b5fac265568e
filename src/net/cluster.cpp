#include "net/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "hw/frequency_governor.hpp"
#include "net/faults.hpp"
#include "sim/flow_model.hpp"

namespace cci::net {

Cluster::Cluster(ClusterSpec spec)
    : net_(std::move(spec.network)),
      topology_(std::move(spec.topology)),
      model_(engine_),
      rng_(spec.seed) {
  const int nodes = spec.nodes;
  if (nodes < 1) throw std::invalid_argument("Cluster: nodes must be >= 1");
  if (topology_.max_hosts() > 0 && nodes > topology_.max_hosts())
    throw std::invalid_argument("Cluster: topology attaches at most " +
                                std::to_string(topology_.max_hosts()) + " hosts, got " +
                                std::to_string(nodes));
  node_res_begin_.reserve(static_cast<std::size_t>(nodes) + 1);
  for (int i = 0; i < nodes; ++i) {
    node_res_begin_.push_back(model_.solver().resource_count());
    std::string prefix = "node" + std::to_string(i) + ".";
    machines_.push_back(std::make_unique<hw::Machine>(model_, spec.machine, prefix));
    nics_.push_back(std::make_unique<Nic>(*machines_.back(), net_, prefix));
    tx_ports_.push_back(model_.add_resource(prefix + "tx", net_.wire_bw));
    rx_ports_.push_back(model_.add_resource(prefix + "rx", net_.wire_bw));
  }
  node_res_begin_.push_back(model_.solver().resource_count());
  fabric_res_begin_ = model_.solver().resource_count();

  // ---- fabric materialization ----------------------------------------------
  const int S = topology_.switch_count();
  if (topology_.kind() == Topology::Kind::kSingleSwitch) {
    // Bitwise-identical to the pre-topology fabric: one resource, same
    // name, same capacity expression, created at the same point.
    switch_xbars_.push_back(model_.add_resource(
        "switch",
        net_.wire_bw * static_cast<double>(nodes) * topology_.oversubscription()));
  } else {
    // Hosts actually attached per edge switch (capacity follows the built
    // cluster, not the topology's maximum).
    std::vector<int> hosts_at(static_cast<std::size_t>(S), 0);
    for (int n = 0; n < nodes; ++n) ++hosts_at[static_cast<std::size_t>(topology_.host_switch(n))];
    // Ingress link capacity per switch: crossbars are internally
    // non-blocking, congestion lives on ports and links.
    std::vector<double> ingress(static_cast<std::size_t>(S), 0.0);
    for (const Topology::Link& l : topology_.links())
      ingress[static_cast<std::size_t>(l.dst)] += l.bw_scale;
    for (int s = 0; s < S; ++s) {
      double ports = static_cast<double>(hosts_at[static_cast<std::size_t>(s)]) +
                     ingress[static_cast<std::size_t>(s)];
      switch_xbars_.push_back(model_.add_resource("switch." + topology_.switch_name(s),
                                                  net_.wire_bw * std::max(ports, 1.0)));
    }
    link_at_.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(S), -1);
    const auto& links = topology_.links();
    link_res_.reserve(links.size());
    for (std::size_t li = 0; li < links.size(); ++li) {
      const Topology::Link& l = links[li];
      link_res_.push_back(model_.add_resource(
          "link." + topology_.switch_name(l.src) + "-" + topology_.switch_name(l.dst),
          net_.wire_bw * l.bw_scale));
      link_at_[static_cast<std::size_t>(l.src) * static_cast<std::size_t>(S) +
               static_cast<std::size_t>(l.dst)] = static_cast<int>(li);
    }
    obs_routes_ = &obs::Registry::global().counter("net.fabric.routes");
    obs_reroutes_ = &obs::Registry::global().counter("net.fabric.adaptive_reroutes");
  }
  fabric_resources_ = switch_xbars_;
  fabric_resources_.insert(fabric_resources_.end(), link_res_.begin(), link_res_.end());
  faults_ = std::make_unique<FaultState>();
}

Cluster::~Cluster() = default;

FaultState& Cluster::faults() { return *faults_; }

sim::Resource* Cluster::find_link(std::string_view name) const {
  for (sim::Resource* r : fabric_resources_)
    if (r->name() == name) return r;
  return nullptr;
}

sim::Resource* Cluster::link_between(int s1, int s2) const {
  const int S = topology_.switch_count();
  const int li = link_at_[static_cast<std::size_t>(s1) * static_cast<std::size_t>(S) +
                          static_cast<std::size_t>(s2)];
  return link_res_[static_cast<std::size_t>(li)];
}

double Cluster::link_utilization(int s1, int s2) const {
  return link_between(s1, s2)->utilization();
}

void Cluster::note_route(int src, int dst, int via) {
  if (!route_trace_enabled_ || route_trace_cap_ == 0) return;
  if (route_trace_.size() < route_trace_cap_) {
    route_trace_.push_back({src, dst, via});
    return;
  }
  route_trace_[route_trace_head_] = {src, dst, via};
  route_trace_head_ = (route_trace_head_ + 1) % route_trace_cap_;
  ++route_trace_dropped_;
}

std::vector<Cluster::RouteChoice> Cluster::route_trace() const {
  std::vector<RouteChoice> out;
  out.reserve(route_trace_.size());
  // Oldest first: once the ring wrapped, head_ is the oldest slot.
  for (std::size_t i = 0; i < route_trace_.size(); ++i)
    out.push_back(route_trace_[(route_trace_head_ + i) % route_trace_.size()]);
  return out;
}

void Cluster::set_route_trace_capacity(std::size_t cap) {
  route_trace_cap_ = cap;
  route_trace_.clear();
  route_trace_head_ = 0;
  route_trace_dropped_ = 0;
}

Cluster::FabricPath Cluster::fabric_path(int src, int dst) {
  FabricPath path;
  path.push_back(tx_port(src));
  switch (topology_.kind()) {
    case Topology::Kind::kSingleSwitch:
      path.push_back(switch_xbars_.front());
      break;
    case Topology::Kind::kFatTree:
      obs_routes_->add(1);
      route_fat_tree(src, dst, path);
      break;
    case Topology::Kind::kDragonfly:
      obs_routes_->add(1);
      route_dragonfly(src, dst, path);
      break;
  }
  path.push_back(rx_port(dst));
  return path;
}

void Cluster::route_fat_tree(int src, int dst, FabricPath& path) {
  const int k = topology_.param_k();
  const int spines = k / 2;
  const int ls = topology_.host_switch(src);
  const int ld = topology_.host_switch(dst);
  path.push_back(switch_xbars_[static_cast<std::size_t>(ls)]);
  if (ls == ld) return;  // one-hop: stays inside the leaf crossbar
  // ECMP-style static spine: a pure function of the leaf pair.
  const int minimal = (ls + ld) % spines;
  int choice = minimal;
  if (topology_.routing() == RoutingPolicy::kAdaptive) {
    auto cost = [&](int s) {
      return std::max(link_utilization(ls, k + s), link_utilization(k + s, ld));
    };
    const double u_min = cost(minimal);
    if (u_min > topology_.threshold()) {
      double best = u_min;
      for (int s = 0; s < spines; ++s) best = std::min(best, cost(s));
      if (best < u_min) {
        // Deviate to the least-loaded spine; exact ties break through the
        // cluster RNG (deterministic per seed/schedule).
        sim::SmallVec<int, 16> ties;
        for (int s = 0; s < spines; ++s)
          if (cost(s) == best) ties.push_back(s);
        choice = ties[ties.size() == 1 ? 0 : rng_.below(ties.size())];
      }
    }
  }
  note_route(src, dst, choice);
  if (choice != minimal) obs_reroutes_->add(1);
  path.push_back(link_between(ls, k + choice));
  path.push_back(switch_xbars_[static_cast<std::size_t>(k + choice)]);
  path.push_back(link_between(k + choice, ld));
  path.push_back(switch_xbars_[static_cast<std::size_t>(ld)]);
}

void Cluster::dragonfly_hop(int r1, int r2, FabricPath& path) {
  if (r1 == r2) return;
  path.push_back(link_between(r1, r2));
  path.push_back(switch_xbars_[static_cast<std::size_t>(r2)]);
}

namespace {
/// Gateway router indices of the dragonfly builder's global link g -> h.
int gateway_out(int g, int h, int routers) { return (h + (h > g ? -1 : 0)) % routers; }
int gateway_in(int g, int h, int routers) { return (g + (g > h ? -1 : 0)) % routers; }
}  // namespace

void Cluster::route_dragonfly(int src, int dst, FabricPath& path) {
  const int R = topology_.param_routers();
  const int groups = topology_.param_groups();
  const int rs = topology_.host_switch(src);
  const int rd = topology_.host_switch(dst);
  const int g = rs / R;
  const int h = rd / R;
  path.push_back(switch_xbars_[static_cast<std::size_t>(rs)]);
  if (rs == rd) return;
  if (g == h) {
    note_route(src, dst, -1);
    dragonfly_hop(rs, rd, path);
    return;
  }
  // Cross-group: minimal is one global hop; adaptive may go Valiant via an
  // intermediate group when the minimal global link is congested.
  auto global_util = [&](int from_g, int to_g) {
    return link_utilization(from_g * R + gateway_out(from_g, to_g, R),
                            to_g * R + gateway_in(from_g, to_g, R));
  };
  int via = -1;
  if (topology_.routing() == RoutingPolicy::kAdaptive && groups > 2) {
    const double u_min = global_util(g, h);
    if (u_min > topology_.threshold()) {
      // Valiant detour doubles the global hops, so it must beat the
      // minimal link by 2x to win (UGAL-style comparison).
      double best = u_min;
      for (int k = 0; k < groups; ++k) {
        if (k == g || k == h) continue;
        best = std::min(best, 2.0 * std::max(global_util(g, k), global_util(k, h)));
      }
      if (best < u_min) {
        sim::SmallVec<int, 16> ties;
        for (int k = 0; k < groups; ++k) {
          if (k == g || k == h) continue;
          if (2.0 * std::max(global_util(g, k), global_util(k, h)) == best)
            ties.push_back(k);
        }
        via = ties[ties.size() == 1 ? 0 : rng_.below(ties.size())];
        obs_reroutes_->add(1);
      }
    }
  }
  note_route(src, dst, via);
  auto traverse = [&](int cur, int from_g, int to_g) {
    const int out = from_g * R + gateway_out(from_g, to_g, R);
    const int in = to_g * R + gateway_in(from_g, to_g, R);
    dragonfly_hop(cur, out, path);
    path.push_back(link_between(out, in));
    path.push_back(switch_xbars_[static_cast<std::size_t>(in)]);
    return in;
  };
  int cur = rs;
  if (via >= 0) cur = traverse(cur, g, via);
  cur = traverse(cur, via >= 0 ? via : g, h);
  dragonfly_hop(cur, rd, path);
}

std::vector<int> Cluster::resource_groups() const {
  std::vector<int> groups(model_.solver().resource_count(), -1);
  for (std::size_t n = 0; n + 1 < node_res_begin_.size(); ++n) {
    const int group = topology_.group_of_node(static_cast<int>(n));
    for (std::size_t i = node_res_begin_[n]; i < node_res_begin_[n + 1]; ++i)
      groups[i] = group;
  }
  const int S = topology_.switch_count();
  for (int s = 0; s < S; ++s)
    groups[fabric_res_begin_ + static_cast<std::size_t>(s)] = topology_.group_of_switch(s);
  const auto& links = topology_.links();
  for (std::size_t li = 0; li < links.size(); ++li) {
    const int ga = topology_.group_of_switch(links[li].src);
    const int gb = topology_.group_of_switch(links[li].dst);
    groups[fabric_res_begin_ + static_cast<std::size_t>(S) + li] =
        (ga == gb && ga >= 0) ? ga : -1;
  }
  return groups;
}

void Nic::bind_obs() {
  obs_queue_depth_ = &obs_reg_->gauge("net." + dma_engine_->name() + ".queue_depth");
}

void Nic::refresh_dma_capacity() {
  const auto& cfg = machine_.config();
  double u = machine_.governor().uncore_freq(socket());
  double span = cfg.uncore_freq_max_hz - cfg.uncore_freq_min_hz;
  double x = span > 0.0 ? (u - cfg.uncore_freq_min_hz) / span : 1.0;
  x = x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
  double bw = (params_.dma_bw_min_uncore +
               (params_.dma_bw_max_uncore - params_.dma_bw_min_uncore) * x) *
              degradation_;
  if (dma_engine_->capacity() != bw) dma_engine_->set_capacity(bw);
}

}  // namespace cci::net
