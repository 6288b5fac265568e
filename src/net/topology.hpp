// Topology: declarative switch/link graph descriptions for the fabric.
//
// The paper measures a 2-node cluster whose fabric is one crossbar; this
// API generalizes that to multi-level switch graphs so congestion onset
// and inter-job interference (ROADMAP item 2, "Modeling and Analysis of
// Application Interference on Dragonfly+", "Characterizing the Impact of
// Congestion in Modern HPC Interconnects") can be studied under the same
// flow model.  A Topology is a pure *description* — switches, directed
// links, host attachment, routing policy — that net::FabricGraph turns
// into resources and routes (see fabric_graph.hpp).  Three builders:
//
//  * single_switch(oversub)       — the historical model and the default:
//    every node's tx/rx port feeds one crossbar whose capacity is
//    oversub * sum of port rates.  Bitwise-identical to the pre-topology
//    fabric (same resources, same names, same order, same paths).
//  * fat_tree(k, oversub)         — two-level folded Clos: k leaf switches
//    with k/2 host ports each, k/2 spines, one up and one down link per
//    (leaf, spine) pair.  oversub scales uplink capacity (< 1 models
//    oversubscribed production trees).
//  * dragonfly(groups, routers, hosts) — groups of fully-meshed routers
//    ("hosts" hosts each), one global link per ordered group pair attached
//    at a deterministic gateway router.  Global links carry a latency
//    scale > 1, which feeds the per-link-class PDES lookahead.
//
// Routing is a pluggable policy resolved per flow registration:
//  * kMinimal  — deterministic shortest path; ECMP-style spine/gateway
//    selection is a pure function of (src, dst).  Never draws the RNG.
//  * kAdaptive — congestion-aware: the route is re-chosen every time a
//    flow (re)registers, from the *current* link utilizations of the flow
//    model; ties break through the cluster RNG, so decisions are
//    deterministic for a given seed and schedule.  This is adaptive
//    routing as flow re-registration, the granularity the fluid model
//    supports exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/partition.hpp"

namespace cci::net {

struct NetworkParams;

/// What a fabric link connects; drives naming, capacity and the
/// conservative-lookahead scale of events crossing it.
enum class LinkClass : std::uint8_t {
  kUp,      ///< fat-tree leaf -> spine
  kDown,    ///< fat-tree spine -> leaf
  kLocal,   ///< dragonfly intra-group router <-> router
  kGlobal,  ///< dragonfly inter-group (longer wire: latency scale > 1)
};

[[nodiscard]] const char* to_string(LinkClass c);

/// How paths across the graph are chosen (see header comment).
enum class RoutingPolicy : std::uint8_t { kMinimal, kAdaptive };

[[nodiscard]] const char* to_string(RoutingPolicy p);

class Topology {
 public:
  enum class Kind : std::uint8_t { kSingleSwitch, kFatTree, kDragonfly };

  /// One directed inter-switch link of the graph.
  struct Link {
    int src = 0;  ///< switch index
    int dst = 0;  ///< switch index
    LinkClass cls = LinkClass::kLocal;
    double bw_scale = 1.0;  ///< capacity = bw_scale * NetworkParams::wire_bw
  };

  /// The historical fabric: one crossbar, capacity
  /// oversubscription * nodes * wire_bw.  The default everywhere.
  static Topology single_switch(double oversubscription = 1.0);
  /// Two-level folded Clos of k-port switches (k even, >= 2): k leaves x
  /// k/2 spines, k/2 host ports per leaf.  Uplink capacity is
  /// oversubscription * wire_bw per (leaf, spine) link.
  static Topology fat_tree(int k, double oversubscription = 1.0);
  /// groups fully-connected groups of `routers` fully-meshed routers with
  /// `hosts` hosts each; one global link per ordered group pair.
  static Topology dragonfly(int groups, int routers, int hosts);

  /// Select the routing policy (builder-style; default kMinimal).
  Topology& routing(RoutingPolicy p) {
    routing_ = p;
    return *this;
  }
  /// Utilization on the minimal route above which kAdaptive considers
  /// deviating (fat-tree: to another spine, dragonfly: via an intermediate
  /// group).  Builder-style; default 0.0 = always take the least-loaded
  /// candidate.
  Topology& adaptive_threshold(double u) {
    adaptive_threshold_ = u;
    return *this;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] RoutingPolicy routing() const { return routing_; }
  [[nodiscard]] double threshold() const { return adaptive_threshold_; }
  [[nodiscard]] double oversubscription() const { return oversubscription_; }

  // ---- graph shape ----------------------------------------------------------
  [[nodiscard]] int switch_count() const { return switch_count_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  /// Human name of switch `s` ("switch", "leaf3", "g1.r2").
  [[nodiscard]] std::string switch_name(int s) const;
  /// Room format_switch_name() may write: two ints and three more chars.
  static constexpr std::size_t kMaxSwitchName = 32;
  /// Write switch_name(s) at `out`, which has kMaxSwitchName chars of room,
  /// and return one past its end: lets a caller build a longer name (a
  /// link's) in one buffer.
  char* format_switch_name(int s, char* out) const;
  /// Hosts the topology can attach (kSingleSwitch: unbounded, returns 0).
  [[nodiscard]] int max_hosts() const { return max_hosts_; }
  /// Edge switch node `n` plugs into.
  [[nodiscard]] int host_switch(int node) const {
    switch (kind_) {
      case Kind::kSingleSwitch:
        return 0;
      case Kind::kFatTree:
        return node / (k_ / 2);
      case Kind::kDragonfly:
        return node / hosts_;
    }
    return 0;
  }
  /// Dragonfly gateway routers of the global link from group g to group h:
  /// the switch it leaves g at and the switch it enters h at.  The builder
  /// attaches the link there, and every route across it passes both.
  [[nodiscard]] int gateway_out(int g, int h) const {
    return g * routers_ + (h + (h > g ? -1 : 0)) % routers_;
  }
  [[nodiscard]] int gateway_in(int g, int h) const {
    return h * routers_ + (g + (g > h ? -1 : 0)) % routers_;
  }

  // ---- groups (PDES carve boundaries) ---------------------------------------
  /// Topology groups are the units parallel simulation may carve at:
  /// dragonfly groups, fat-tree leaves, the single switch.  Cross-group
  /// traffic always crosses a link whose class has latency_scale >= 1, so
  /// the conservative lookahead between groups is
  /// min_remote_delay(net) >= net.min_remote_delay().
  [[nodiscard]] int group_count() const { return group_count_; }
  [[nodiscard]] int group_of_switch(int s) const;
  [[nodiscard]] int group_of_node(int node) const { return group_of_switch(host_switch(node)); }

  /// Extra one-way latency of a link class, as a multiple of the fabric's
  /// base wire latency (global dragonfly links are physically longer).
  [[nodiscard]] static double latency_scale(LinkClass c) {
    return c == LinkClass::kGlobal ? 3.0 : 1.0;
  }
  /// Conservative cross-*group* delivery floor on this topology: the base
  /// fabric floor scaled by the cheapest link class that can cross a group
  /// boundary.  Single-group topologies fall back to the fabric floor.
  [[nodiscard]] double min_remote_delay(const NetworkParams& net) const;

  /// Condensed group graph for sim::partition_groups with `nodes` hosts
  /// attached: one vertex per carve group weighted by attached hosts, one
  /// undirected edge per inter-group coupling, capacities in units of
  /// wire_bw (summed bw_scale).  Direct group-to-group links (dragonfly
  /// globals) accumulate onto their pair's edge; links through shared
  /// switches that belong to no group (fat-tree spines) couple *every*
  /// group pair, so their total capacity is spread as a uniform clique —
  /// any balanced carve of a fat tree cuts the same spine capacity, which
  /// is exactly right.
  [[nodiscard]] sim::GroupGraph group_graph(int nodes) const;
  /// Indices into links() of the links a shard map cuts: a link is cut
  /// when its endpoint groups land on different shards, and every link
  /// touching a group-less shared switch (fat-tree spine) is cut as soon
  /// as the map uses more than one shard — the spine couples all of them.
  [[nodiscard]] std::vector<int> cut_links(const std::vector<int>& group_shard) const;
  /// Conservative window for a concrete cut: the base fabric floor scaled
  /// by the *cheapest link class actually cut* — a dragonfly carve that
  /// only severs global links (latency scale 3) may run windows 3x longer
  /// than the generic floor and stay conservative, because congestion
  /// state needs a global-wire time to propagate between shards.  An empty
  /// cut falls back to min_remote_delay(net).
  [[nodiscard]] double min_cut_delay(const NetworkParams& net,
                                     const std::vector<int>& cut) const;

  /// Canonical `key=value;` serialization for campaign cache keys (doubles
  /// as %.17g).  Everything that can change a route or a capacity is here.
  void serialize(std::ostream& os) const;

  // ---- builder-internal shape parameters (read-only) ------------------------
  [[nodiscard]] int param_k() const { return k_; }
  [[nodiscard]] int param_groups() const { return groups_; }
  [[nodiscard]] int param_routers() const { return routers_; }

 private:
  Topology() = default;

  Kind kind_ = Kind::kSingleSwitch;
  RoutingPolicy routing_ = RoutingPolicy::kMinimal;
  double adaptive_threshold_ = 0.0;
  double oversubscription_ = 1.0;
  int switch_count_ = 1;
  int max_hosts_ = 0;      ///< 0 = unbounded (single switch)
  int group_count_ = 1;
  int k_ = 0;              ///< fat-tree port count
  int groups_ = 0, routers_ = 0, hosts_ = 0;  ///< dragonfly shape
  std::vector<Link> links_;
};

}  // namespace cci::net
