// Cluster: N simulated nodes joined by one fabric.
//
// Owns the engine, the flow model, the machines, their NICs and the
// fabric's resources.  This is the top-level object every experiment
// builds.  The fabric — its resources and its routes — is a
// net::FabricGraph materialized into the cluster's flow model; the cluster
// only decides where a route deviates (`via`), under the topology's
// RoutingPolicy: kAdaptive consults current link utilizations and breaks
// ties through the cluster RNG, deterministic for a given seed.
//
// Building a cluster solves nothing and formats no name.  Resources are
// registered in the same order as ever (per node its machine, NIC, tx and
// rx port; then every crossbar and link), each named on demand by its
// machine, NIC or the fabric graph.  The clocks the machines set before
// traffic only record capacities (sim/flow_model.hpp), and the flow
// model's storage is reused from the last model built on the thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "net/fabric_graph.hpp"
#include "net/nic.hpp"
#include "net/network_params.hpp"
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
  /// The fabric's description, keys and materialized resources: ports by
  /// key (tx_key/rx_key), switch_resources(), link_resources(), find().
  const FabricGraph& fabric() const { return fabric_; }

  /// Wire-unreliability state (loss/corruption windows, NIC blackouts) the
  /// transport consults per message.  Inert until a FaultInjector arms it.
  FaultState& faults();

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
  /// Decisions evicted from the ring since construction: nothing is lost
  /// silently.
  [[nodiscard]] std::uint64_t route_trace_dropped() const { return route_trace_dropped_; }
  [[nodiscard]] std::size_t route_trace_capacity() const { return route_trace_cap_; }
  /// Resize the ring (diagnostics that need deeper history); clears any
  /// recorded trace, so call it before traffic runs.
  void set_route_trace_capacity(std::size_t cap);

 private:
  /// Decide, count and trace the `via` of a multi-switch route.
  [[nodiscard]] int choose_via(int src, int dst);
  void note_route(int src, int dst, int via);

  NetworkParams net_;
  FabricGraph fabric_;
  sim::Engine engine_;
  sim::FlowModel model_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<hw::Machine>> machines_;
  std::vector<std::unique_ptr<Nic>> nics_;
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
