// FabricGraph: per-shard fluid replica of a Cluster's fabric resources.
//
// Cross-shard fabric simulation (core::FabricLab::run_sharded) runs every
// stream as one fluid activity on its source node's shard, over that
// shard's *own* copy of the fabric — tx/rx ports, switch crossbars, links
// — built by this class with exactly the Cluster's names, capacities and
// registration order.  Resources the static routes of several shards
// share become boundary proxies (sim::ShardGroup::add_boundary_link):
// their replicas exchange capacity at every window barrier, so each
// shard's local max-min solve sees the remote load as reduced capacity at
// most one window stale.
//
// Keys are shard-independent integers (a pure function of the topology
// shape), so the coordinator can plan routes and boundary sets before any
// shard exists, and every shard's replica of key k sits at resource index
// k in its own FlowModel:
//
//     tx(n) = n            rx(n) = N + n
//     xbar(s) = 2N + s     link(li) = 2N + S + li
//
// Routing is kMinimal only — adaptive routing reads *global* link
// utilization and draws the cluster RNG, neither of which exists once the
// fabric is split; run_sharded rejects adaptive scenarios.
#pragma once

#include <vector>

#include "net/network_params.hpp"
#include "net/topology.hpp"

namespace cci::sim {
class FlowModel;
class Resource;
}  // namespace cci::sim

namespace cci::net {

class FabricGraph {
 public:
  /// Shape-only construction: key space, minimal routes and base
  /// capacities, no resources.  Usable from the coordinator for planning.
  FabricGraph(const Topology& topo, const NetworkParams& net, int nodes);

  /// Materialize every key as a resource of `model`, in key order, with
  /// the Cluster's names and capacities.  The model must be empty so that
  /// resource index == key (asserted).  run_sharded() materializes every
  /// shard's replica on its own worker, all shards at once
  /// (ShardGroup::with_each_shard), so pooled state binds to that thread.
  void materialize(sim::FlowModel& model);

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int key_count() const {
    return 2 * nodes_ + switch_count_ + static_cast<int>(link_count_);
  }
  [[nodiscard]] int tx_key(int node) const { return node; }
  [[nodiscard]] int rx_key(int node) const { return nodes_ + node; }
  [[nodiscard]] int xbar_key(int s) const { return 2 * nodes_ + s; }
  [[nodiscard]] int link_key(int li) const { return 2 * nodes_ + switch_count_ + li; }

  /// Capacity the Cluster would give this resource (wire_bw scaled).
  [[nodiscard]] double base_capacity(int key) const {
    return base_cap_[static_cast<std::size_t>(key)];
  }
  /// Cluster-identical resource name for this key.
  [[nodiscard]] const std::string& name(int key) const {
    return names_[static_cast<std::size_t>(key)];
  }
  /// Materialized resource for `key` (nullptr before materialize()).
  [[nodiscard]] sim::Resource* at(int key) const {
    return res_[static_cast<std::size_t>(key)];
  }

  /// Append the minimal-route key sequence src -> dst (tx, xbars/links,
  /// rx).  A pure function of the topology shape: never reads utilization,
  /// never draws an RNG, identical on every shard and the coordinator.
  void minimal_path(int src, int dst, std::vector<int>& keys) const;

 private:
  [[nodiscard]] int link_index(int s1, int s2) const {
    return link_at_[static_cast<std::size_t>(s1) *
                        static_cast<std::size_t>(switch_count_) +
                    static_cast<std::size_t>(s2)];
  }

  Topology topo_;
  int nodes_ = 0;
  int switch_count_ = 0;
  std::size_t link_count_ = 0;
  std::vector<int> link_at_;  ///< link_at_[src * S + dst], -1 = no link
  std::vector<double> base_cap_;
  std::vector<std::string> names_;
  std::vector<sim::Resource*> res_;
};

}  // namespace cci::net
