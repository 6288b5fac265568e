#include "net/cluster.hpp"

#include <algorithm>
#include <limits>

#include "hw/frequency_governor.hpp"
#include "net/faults.hpp"
#include "sim/flow_model.hpp"

namespace cci::net {

namespace {

/// Adaptive deviation: when the minimal route's cost is above the
/// threshold, the candidate c in [0, n) of least cost(c), if that beats
/// the minimal cost; exact ties break through `rng` (deterministic per
/// seed and schedule).  -1 when the route stays minimal.
template <typename Cost>
int least_loaded(double minimal_cost, double threshold, int n, const Cost& cost,
                 sim::Rng& rng) {
  if (!(minimal_cost > threshold)) return -1;
  double best = minimal_cost;
  for (int c = 0; c < n; ++c) best = std::min(best, cost(c));
  if (!(best < minimal_cost)) return -1;
  sim::SmallVec<int, 16> ties;
  for (int c = 0; c < n; ++c)
    if (cost(c) == best) ties.push_back(c);
  return ties[ties.size() == 1 ? 0 : rng.below(ties.size())];
}

}  // namespace

Cluster::Cluster(ClusterSpec spec)
    : net_(std::move(spec.network)),
      fabric_(spec.topology, net_, spec.nodes),
      model_(engine_),
      rng_(spec.seed) {
  // Solver resource order: per node its machine, NIC, tx and rx port; then
  // every crossbar and link in key order.
  for (int i = 0; i < spec.nodes; ++i) {
    machines_.push_back(
        std::make_unique<hw::Machine>(model_, spec.machine, "node" + std::to_string(i) + "."));
    nics_.push_back(std::make_unique<Nic>(*machines_.back(), net_));
    fabric_.materialize(model_, fabric_.tx_key(i));
    fabric_.materialize(model_, fabric_.rx_key(i));
  }
  for (int key = fabric_.xbar_key(0); key < fabric_.key_count(); ++key)
    fabric_.materialize(model_, key);
  if (fabric_.topology().kind() != Topology::Kind::kSingleSwitch) {
    obs_routes_ = &obs::Registry::global().counter("net.fabric.routes");
    obs_reroutes_ = &obs::Registry::global().counter("net.fabric.adaptive_reroutes");
  }
  faults_ = std::make_unique<FaultState>();
}

Cluster::~Cluster() = default;

FaultState& Cluster::faults() { return *faults_; }

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
  const int via = fabric_.topology().kind() == Topology::Kind::kSingleSwitch
                      ? -1
                      : choose_via(src, dst);
  FabricPath path;
  fabric_.route(src, dst, via, [&](int key) { path.push_back(fabric_.at(key)); });
  return path;
}

int Cluster::choose_via(int src, int dst) {
  obs_routes_->add(1);
  const Topology& topo = fabric_.topology();
  const int a = topo.host_switch(src);
  const int b = topo.host_switch(dst);
  if (a == b) return -1;  // one crossbar: nothing to decide
  const int minimal = fabric_.minimal_via(src, dst);
  int via = minimal;
  if (topo.routing() == RoutingPolicy::kAdaptive) {
    const auto util = [this](int s1, int s2) {
      return fabric_.at(fabric_.link_key(s1, s2))->utilization();
    };
    if (topo.kind() == Topology::Kind::kFatTree) {
      // Deviate to the least-loaded spine; a spine costs the busier of
      // its up and down link.
      const int k = topo.param_k();
      const auto cost = [&](int s) { return std::max(util(a, k + s), util(k + s, b)); };
      const int s = least_loaded(cost(minimal), topo.threshold(), k / 2, cost, rng_);
      if (s >= 0) via = s;
    } else {
      // Dragonfly across groups: a Valiant detour via an intermediate
      // group doubles the global hops, so it must beat the minimal global
      // link by 2x to win (UGAL-style comparison).
      const int groups = topo.param_groups();
      const int g = a / topo.param_routers();
      const int h = b / topo.param_routers();
      const auto global = [&](int from, int to) {
        return util(topo.gateway_out(from, to), topo.gateway_in(from, to));
      };
      const auto detour = [&](int k) {
        return k == g || k == h ? std::numeric_limits<double>::infinity()
                                : 2.0 * std::max(global(g, k), global(k, h));
      };
      if (g != h && groups > 2)
        via = least_loaded(global(g, h), topo.threshold(), groups, detour, rng_);
    }
  }
  note_route(src, dst, via);
  if (via != minimal) obs_reroutes_->add(1);
  return via;
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
