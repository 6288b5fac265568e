// FabricGraph: the one description of a fabric's resources and routes.
//
// A Topology says which switches and links exist.  A FabricGraph turns it,
// for a node count and NetworkParams, into the fabric's resource *keys* —
// tx/rx ports, switch crossbars, links — with their names, base capacities
// and routes.  Keys are a pure function of the topology shape, so routes
// and boundary sets can be planned before any resource exists:
//
//     tx(n) = n            rx(n) = N + n
//     xbar(s) = 2N + s     link(li) = 2N + S + li
//
// Two consumers materialize it into a sim::FlowModel:
//
//  * net::Cluster registers one key at a time, between its nodes' machine
//    and NIC resources, and routes every transfer through route().  It
//    decides only the route's deviation `via` (adaptive routing).
//  * core::FabricLab::run_sharded builds one lean replica per shard: in
//    key order, only the keys its own streams' minimal routes use.  Keys
//    the static routes of several shards share become boundary proxies
//    (sim::ShardGroup::add_boundary_link).  Replicas materialize on their
//    shard's worker (ShardGroup::with_each_shard), so pooled state binds
//    to that thread.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/network_params.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"

namespace cci::sim {
class FlowModel;
}  // namespace cci::sim

namespace cci::net {

class FabricGraph : private sim::ResourceNamer {
 public:
  /// Shape-only construction: key space, routes and base capacities, no
  /// resources.  Throws std::invalid_argument for nodes < 1 or more nodes
  /// than the topology attaches.
  FabricGraph(const Topology& topo, const NetworkParams& net, int nodes);

  /// Materialize one key as the next resource of `model`, so a caller can
  /// interleave the fabric with resources of its own or leave keys out.
  void materialize(sim::FlowModel& model, int key);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] int key_count() const {
    return 2 * nodes_ + switch_count_ + static_cast<int>(topo_.links().size());
  }
  [[nodiscard]] int tx_key(int node) const { return node; }
  [[nodiscard]] int rx_key(int node) const { return nodes_ + node; }
  [[nodiscard]] int xbar_key(int s) const { return 2 * nodes_ + s; }
  [[nodiscard]] int link_key(int li) const { return 2 * nodes_ + switch_count_ + li; }
  /// Key of the link from switch s1 to switch s2, which must exist.
  [[nodiscard]] int link_key(int s1, int s2) const {
    return link_key(link_at_[static_cast<std::size_t>(s1) *
                                 static_cast<std::size_t>(switch_count_) +
                             static_cast<std::size_t>(s2)]);
  }

  /// Capacity of this key's resource (wire_bw scaled).
  [[nodiscard]] double base_capacity(int key) const {
    return base_cap_[static_cast<std::size_t>(key)];
  }
  /// Resource name of this key ("node3.tx", "switch.leaf0",
  /// "link.g0.r1-g1.r0"; the single-switch crossbar is "switch").
  [[nodiscard]] std::string name(int key) const;
  /// Materialized resource for `key` (nullptr before it is materialized).
  [[nodiscard]] sim::Resource* at(int key) const {
    return res_[static_cast<std::size_t>(key)];
  }
  /// Crossbars then links, key order, once every key is materialized (as
  /// Cluster does).  Single switch: exactly the one crossbar.
  [[nodiscard]] std::span<sim::Resource* const> switch_resources() const {
    return std::span<sim::Resource* const>(res_).subspan(
        static_cast<std::size_t>(xbar_key(0)));
  }
  /// Links only, Topology::links() order, once every key is materialized
  /// (empty on a single switch).
  [[nodiscard]] std::span<sim::Resource* const> link_resources() const {
    return std::span<sim::Resource* const>(res_).subspan(
        static_cast<std::size_t>(link_key(0)));
  }
  /// Materialized crossbar or link by exact name; nullptr when absent.
  [[nodiscard]] sim::Resource* find(std::string_view name) const;

  /// The deviation of the minimal route src -> dst: on a fat-tree whose
  /// leaves differ, the ECMP spine (a pure function of the leaf pair);
  /// everywhere else -1.
  [[nodiscard]] int minimal_via(int src, int dst) const {
    if (topo_.kind() != Topology::Kind::kFatTree) return -1;
    const int a = topo_.host_switch(src);
    const int b = topo_.host_switch(dst);
    return a == b ? -1 : (a + b) % (topo_.param_k() / 2);
  }
  /// Call `visit(key)` for every key of the route src -> dst that deviates
  /// at `via`: the tx port, then crossbars and links alternately, then the
  /// rx port.  On a fat-tree `via` is the spine a cross-leaf route climbs
  /// to; on a dragonfly it is the intermediate group of a Valiant detour,
  /// or -1 for the direct global link.  Routes without a choice ignore it.
  /// A pure function of the shape: never reads utilization or draws an RNG.
  template <typename Visit>
  void route(int src, int dst, int via, Visit&& visit) const;
  /// Append the keys of route(src, dst, minimal_via(src, dst)).
  void minimal_path(int src, int dst, std::vector<int>& keys) const;

 private:
  [[nodiscard]] std::string resource_name(std::uint32_t key) const override {
    return name(static_cast<int>(key));
  }

  Topology topo_;
  int nodes_ = 0;
  int switch_count_ = 0;
  std::vector<int> link_at_;  ///< link_at_[src * S + dst], -1 = no link
  std::vector<double> base_cap_;
  std::vector<sim::Resource*> res_;
};

template <typename Visit>
void FabricGraph::route(int src, int dst, int via, Visit&& visit) const {
  const int a = topo_.host_switch(src);
  const int b = topo_.host_switch(dst);
  // One switch-graph hop s1 -> s2: the link, then s2's crossbar.
  const auto hop = [&](int s1, int s2) {
    visit(link_key(s1, s2));
    visit(xbar_key(s2));
  };
  visit(tx_key(src));
  visit(xbar_key(a));
  if (a != b && topo_.kind() == Topology::Kind::kFatTree) {
    const int spine = topo_.param_k() + via;
    hop(a, spine);
    hop(spine, b);
  } else if (a != b) {  // dragonfly
    const int routers = topo_.param_routers();
    const int g = a / routers;
    const int h = b / routers;
    int at_switch = a;
    // Cross the global link from group `from` to group `to`, first hopping
    // to its gateway inside `from`.
    const auto cross = [&](int from, int to) {
      const int out = topo_.gateway_out(from, to);
      if (at_switch != out) hop(at_switch, out);
      at_switch = topo_.gateway_in(from, to);
      hop(out, at_switch);
    };
    if (g != h) {
      if (via >= 0) cross(g, via);
      cross(via >= 0 ? via : g, h);
    }
    if (at_switch != b) hop(at_switch, b);
  }
  visit(rx_key(dst));
}

}  // namespace cci::net
