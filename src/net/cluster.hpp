// Cluster: N simulated nodes joined by one fabric.
//
// Owns the engine, the flow model, the machines, their NICs and the fabric
// resources described by a net::Topology (per-node tx/rx ports, switch
// crossbars, inter-switch links).  This is the top-level object every
// experiment builds.  fabric_path() resolves the resource chain a bulk
// transfer crosses, delegating spine/gateway selection to the topology's
// RoutingPolicy (kAdaptive consults current link utilizations and breaks
// ties through the cluster RNG — deterministic for a given seed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hw/machine.hpp"
#include "net/nic.hpp"
#include "net/network_params.hpp"
#include "net/topology.hpp"
#include "sim/pool.hpp"
#include "sim/rng.hpp"

namespace cci::net {

class FaultState;

/// Everything a Cluster needs, in one spec — new fabric knobs extend this
/// struct instead of widening the constructor.  The defaults are the
/// paper's two-node henri + EDR testbed, so `Cluster cluster({.nodes = 4})`
/// names only what differs.
struct ClusterSpec {
  hw::MachineConfig machine = hw::MachineConfig::henri();
  NetworkParams network = NetworkParams::ib_edr();
  Topology topology = Topology::single_switch();
  int nodes = 2;
  std::uint64_t seed = 42;
};

class Cluster {
 public:
  /// Resource chain of one fabric traversal.  Inline up to the longest
  /// route any builder emits (dragonfly via an intermediate group: 13),
  /// so multi-hop paths never heap-allocate per message (PR 5 guard).
  using FabricPath = sim::SmallVec<sim::Resource*, 16>;

  explicit Cluster(ClusterSpec spec);
  ~Cluster();

  sim::Engine& engine() { return engine_; }
  sim::FlowModel& model() { return model_; }
  sim::Rng& rng() { return rng_; }
  [[nodiscard]] int node_count() const { return static_cast<int>(machines_.size()); }
  hw::Machine& machine(int node) { return *machines_.at(static_cast<std::size_t>(node)); }
  Nic& nic(int node) { return *nics_.at(static_cast<std::size_t>(node)); }
  const NetworkParams& net() const { return net_; }
  const Topology& topology() const { return topology_; }

  /// Wire-unreliability state (loss/corruption windows, NIC blackouts) the
  /// transport consults per message.  Inert until a FaultInjector arms it.
  FaultState& faults();

  /// Node uplink ports, one per direction (ingress/egress contention).
  sim::Resource* tx_port(int node) { return tx_ports_.at(static_cast<std::size_t>(node)); }
  sim::Resource* rx_port(int node) { return rx_ports_.at(static_cast<std::size_t>(node)); }

  /// Every switch crossbar and inter-switch link of the fabric, creation
  /// order (crossbars first).  Single-switch: exactly the one crossbar.
  [[nodiscard]] const std::vector<sim::Resource*>& fabric_resources() const {
    return fabric_resources_;
  }
  /// Inter-switch link resources only (empty on single-switch).
  [[nodiscard]] const std::vector<sim::Resource*>& fabric_links() const { return link_res_; }
  /// Fabric resource by exact name ("switch", "switch.leaf0",
  /// "link.g0.r1-g1.r0"); nullptr when absent.
  [[nodiscard]] sim::Resource* find_link(std::string_view name) const;

  /// Resources a bulk transfer src -> dst crosses on the fabric, resolved
  /// under the topology's routing policy.  kAdaptive re-decides on every
  /// call — i.e. every flow (re)registration — from current utilizations.
  [[nodiscard]] FabricPath fabric_path(int src, int dst);

  /// One routing decision on a multi-switch fabric: `via` is the chosen
  /// spine (fat-tree) or intermediate group (dragonfly), -1 for the
  /// minimal route.  Recorded only while enable_route_trace(true).
  struct RouteChoice {
    int src = 0, dst = 0, via = -1;
  };
  void enable_route_trace(bool on) { route_trace_enabled_ = on; }
  /// The most recent route decisions in chronological order — a
  /// materialized copy of the ring (oldest first).  The ring keeps the
  /// last route_trace_capacity() decisions; older ones are counted in
  /// route_trace_dropped() instead of growing without bound (a 7-point
  /// offered-load sweep on a 1k-node fabric used to).  Byte-compare tests
  /// stay exact: at a fixed seed both runs drop the same prefix.
  [[nodiscard]] std::vector<RouteChoice> route_trace() const;
  /// Decisions evicted from the ring since construction (like the shard
  /// mailbox spill counter: nothing is lost silently).
  [[nodiscard]] std::uint64_t route_trace_dropped() const { return route_trace_dropped_; }
  [[nodiscard]] std::size_t route_trace_capacity() const { return route_trace_cap_; }
  /// Resize the ring (diagnostics that need deeper history); clears any
  /// recorded trace, so call it before traffic runs.
  void set_route_trace_capacity(std::size_t cap);

  // ---- parallel-simulation hints -------------------------------------------
  /// Topology group of every flow-model resource (index-aligned with the
  /// solver's resource table): node-local resources carry the node's group,
  /// shared fabric resources (spines, cross-group links) carry -1.  Feed to
  /// sim::shard_assignment to carve shards at topology group boundaries.
  [[nodiscard]] std::vector<int> resource_groups() const;
  /// Conservative cross-group PDES lookahead on this fabric
  /// (Topology::min_remote_delay over the cluster's NetworkParams).
  [[nodiscard]] double shard_lookahead() const {
    return topology_.min_remote_delay(net_);
  }

 private:
  /// Append the switch-traversal resources (crossbars + links) of the
  /// chosen route; tx/rx ports are added by fabric_path itself.
  void route_fat_tree(int src, int dst, FabricPath& path);
  void route_dragonfly(int src, int dst, FabricPath& path);
  /// Within-group dragonfly hop r1 -> r2 (xbar(r1) already pushed).
  void dragonfly_hop(int r1, int r2, FabricPath& path);
  [[nodiscard]] sim::Resource* link_between(int s1, int s2) const;
  [[nodiscard]] double link_utilization(int s1, int s2) const;
  void note_route(int src, int dst, int via);

  NetworkParams net_;
  Topology topology_;
  sim::Engine engine_;
  sim::FlowModel model_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<hw::Machine>> machines_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<sim::Resource*> tx_ports_;
  std::vector<sim::Resource*> rx_ports_;
  std::vector<sim::Resource*> switch_xbars_;   ///< per switch, topology order
  std::vector<sim::Resource*> link_res_;       ///< per Topology::links() entry
  std::vector<sim::Resource*> fabric_resources_;  ///< xbars then links
  std::vector<int> link_at_;  ///< dense (s1 * S + s2) -> links() index, -1 none
  std::vector<std::size_t> node_res_begin_;  ///< solver index where node i starts
  std::size_t fabric_res_begin_ = 0;         ///< solver index of first xbar
  bool route_trace_enabled_ = false;
  // Route-trace ring: route_trace_ holds the last route_trace_cap_
  // decisions, route_trace_head_ is the slot the next one overwrites once
  // full, route_trace_dropped_ counts evictions.
  std::vector<RouteChoice> route_trace_;
  std::size_t route_trace_cap_ = 65536;
  std::size_t route_trace_head_ = 0;
  std::uint64_t route_trace_dropped_ = 0;
  // net.fabric.* counters; registered only on multi-switch topologies so
  // the single-switch metric surface stays byte-identical to pre-topology.
  obs::Counter* obs_routes_ = nullptr;
  obs::Counter* obs_reroutes_ = nullptr;
  std::unique_ptr<FaultState> faults_;
};

}  // namespace cci::net
