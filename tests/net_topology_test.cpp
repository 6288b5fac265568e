// Topology-graph fabric: builder shapes, materialized resources, minimal
// and adaptive routing (fat-tree spines, dragonfly Valiant detours),
// single-switch bitwise compatibility, the PDES carve exports and a route
// oracle over generated shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/gpu.hpp"
#include "net/cluster.hpp"
#include "net/fabric_graph.hpp"
#include "obs/metrics.hpp"
#include "sim/flow_model.hpp"
#include "sim/partition.hpp"
#include "sim/rng.hpp"

namespace cci::net {
namespace {


ClusterSpec spec_with(Topology t, int nodes, std::uint64_t seed = 42) {
  ClusterSpec spec;
  spec.topology = std::move(t);
  spec.nodes = nodes;
  spec.seed = seed;
  return spec;
}

std::vector<std::string> path_names(const Cluster::FabricPath& path) {
  std::vector<std::string> names;
  for (sim::Resource* r : path) names.push_back(r->name());
  return names;
}

/// Pin a unit-demand flow on `r` so its utilization reads 1.0 — the
/// congestion signal adaptive routing reacts to.
sim::ActivityPtr load_link(Cluster& cluster, const char* name) {
  sim::Resource* r = cluster.fabric().find(name);
  EXPECT_NE(r, nullptr) << name;
  sim::ActivitySpec spec;
  spec.work = 1e18;  // effectively forever
  spec.demands.push_back({r, 1.0});
  return cluster.model().start(spec);
}

// ---- builders ---------------------------------------------------------------

TEST(Topology, FatTreeShapeAndNames) {
  Topology t = Topology::fat_tree(4, 0.5);
  EXPECT_EQ(t.kind(), Topology::Kind::kFatTree);
  EXPECT_EQ(t.switch_count(), 6);  // 4 leaves + 2 spines
  EXPECT_EQ(t.max_hosts(), 8);     // k/2 hosts per leaf
  EXPECT_EQ(t.group_count(), 4);   // one group per leaf
  ASSERT_EQ(t.links().size(), 16u);  // 4 leaves x 2 spines x 2 directions
  // Leaf-major, up immediately followed by down for each (leaf, spine).
  EXPECT_EQ(t.links()[0].src, 0);
  EXPECT_EQ(t.links()[0].dst, 4);
  EXPECT_EQ(t.links()[0].cls, LinkClass::kUp);
  EXPECT_EQ(t.links()[0].bw_scale, 0.5);
  EXPECT_EQ(t.links()[1].src, 4);
  EXPECT_EQ(t.links()[1].dst, 0);
  EXPECT_EQ(t.links()[1].cls, LinkClass::kDown);
  EXPECT_EQ(t.switch_name(0), "leaf0");
  EXPECT_EQ(t.switch_name(5), "spine1");
  EXPECT_EQ(t.host_switch(5), 2);  // 2 hosts per leaf
  EXPECT_EQ(t.group_of_switch(2), 2);
  EXPECT_EQ(t.group_of_switch(4), -1);  // spines belong to every group
}

TEST(Topology, DragonflyShapeAndGateways) {
  Topology t = Topology::dragonfly(3, 2, 2);
  EXPECT_EQ(t.kind(), Topology::Kind::kDragonfly);
  EXPECT_EQ(t.switch_count(), 6);
  EXPECT_EQ(t.max_hosts(), 12);
  EXPECT_EQ(t.group_count(), 3);
  // Intra-group meshes (2 per group) then one global per ordered pair (6).
  ASSERT_EQ(t.links().size(), 12u);
  int locals = 0, globals = 0;
  for (const Topology::Link& l : t.links()) {
    if (l.cls == LinkClass::kLocal) ++locals;
    if (l.cls == LinkClass::kGlobal) ++globals;
  }
  EXPECT_EQ(locals, 6);
  EXPECT_EQ(globals, 6);
  EXPECT_EQ(t.switch_name(3), "g1.r1");
  EXPECT_EQ(t.host_switch(4), 2);  // node 4 -> g1.r0
  EXPECT_EQ(t.group_of_node(4), 1);
  // The g0 -> g1 global link attaches at deterministic gateway routers.
  bool found = false;
  for (const Topology::Link& l : t.links())
    if (l.cls == LinkClass::kGlobal && l.src == 0 && l.dst == 2) found = true;
  EXPECT_TRUE(found) << "expected global link g0.r0 -> g1.r0";
}

TEST(Topology, BuildersRejectDegenerateShapes) {
  EXPECT_THROW(Topology::single_switch(0.0), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(3), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(0), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(4, -1.0), std::invalid_argument);
  EXPECT_THROW(Topology::dragonfly(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Topology::dragonfly(2, 0, 1), std::invalid_argument);
}

TEST(Topology, SerializeCoversEveryRoutingKnob) {
  std::ostringstream ss;
  Topology::single_switch().serialize(ss);
  EXPECT_NE(ss.str().find("t.kind=0;"), std::string::npos);
  EXPECT_NE(ss.str().find("t.routing=minimal;"), std::string::npos);

  std::ostringstream df;
  Topology::dragonfly(3, 2, 2)
      .routing(RoutingPolicy::kAdaptive)
      .adaptive_threshold(0.7)
      .serialize(df);
  EXPECT_NE(df.str().find("t.routing=adaptive;"), std::string::npos);
  EXPECT_NE(df.str().find("t.groups=3;"), std::string::npos);
  EXPECT_NE(df.str(), ss.str());

  // Routing policy alone must change the serialization (it changes paths).
  std::ostringstream a, b;
  Topology::fat_tree(4).serialize(a);
  Topology::fat_tree(4).routing(RoutingPolicy::kAdaptive).serialize(b);
  EXPECT_NE(a.str(), b.str());
}

TEST(Topology, MinRemoteDelayScalesWithTheCrossGroupLinkClass) {
  const NetworkParams net = NetworkParams::ib_edr();
  const double base = net.min_remote_delay();
  EXPECT_DOUBLE_EQ(Topology::single_switch().min_remote_delay(net), base);
  EXPECT_DOUBLE_EQ(Topology::fat_tree(4).min_remote_delay(net), base);
  // Dragonfly groups couple through long global links only.
  EXPECT_DOUBLE_EQ(Topology::dragonfly(3, 2, 2).min_remote_delay(net), 3.0 * base);
  // A single-group dragonfly never crosses a global link.
  EXPECT_DOUBLE_EQ(Topology::dragonfly(1, 2, 2).min_remote_delay(net), base);
}

// ---- single-switch compatibility --------------------------------------------

TEST(Fabric, SingleSwitchSpecMatchesLegacyClusterExactly) {
  Cluster legacy({.nodes = 4, .seed = 42});
  Cluster topo(spec_with(Topology::single_switch(), 4));
  // Same solver resource table: same count, and the fabric is one crossbar
  // with the same name and capacity.
  EXPECT_EQ(topo.model().solver().resource_count(),
            legacy.model().solver().resource_count());
  ASSERT_EQ(topo.fabric().switch_resources().size(), 1u);
  EXPECT_TRUE(topo.fabric().link_resources().empty());
  sim::Resource* a = legacy.fabric().find("switch");
  sim::Resource* b = topo.fabric().find("switch");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->capacity(), b->capacity());
  // Paths are the historical {tx, crossbar, rx} chain.
  EXPECT_EQ(path_names(topo.fabric_path(0, 3)),
            (std::vector<std::string>{"node0.tx", "switch", "node3.rx"}));
  // No routing decisions are ever recorded on the single switch.
  topo.enable_route_trace(true);
  (void)topo.fabric_path(1, 2);
  EXPECT_TRUE(topo.route_trace().empty());
}

TEST(Fabric, NodeCountValidatedAgainstTopologyCapacity) {
  EXPECT_THROW(Cluster(spec_with(Topology::fat_tree(4), 9)), std::invalid_argument);
  EXPECT_THROW(Cluster(spec_with(Topology::dragonfly(2, 2, 1), 5)),
               std::invalid_argument);
  EXPECT_NO_THROW(Cluster(spec_with(Topology::fat_tree(4), 8)));
  // The single switch scales with the node count: any size attaches.
  EXPECT_NO_THROW(Cluster(spec_with(Topology::single_switch(), 16)));
}

// ---- fat-tree routing -------------------------------------------------------

TEST(FatTreeRouting, MinimalSpineIsAPureLeafPairFunction) {
  Cluster cluster(spec_with(Topology::fat_tree(4, 0.5), 8));
  cluster.enable_route_trace(true);
  // Same leaf: one crossbar, no spine, no recorded decision.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 1)),
            (std::vector<std::string>{"node0.tx", "switch.leaf0", "node1.rx"}));
  EXPECT_TRUE(cluster.route_trace().empty());
  // Cross leaf: spine (ls + ld) % spines = (0 + 1) % 2 = 1.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2)),
            (std::vector<std::string>{"node0.tx", "switch.leaf0", "link.leaf0-spine1",
                                      "switch.spine1", "link.spine1-leaf1",
                                      "switch.leaf1", "node2.rx"}));
  ASSERT_EQ(cluster.route_trace().size(), 1u);
  EXPECT_EQ(cluster.route_trace()[0].via, 1);
  // Minimal routing never consults utilization or the RNG: repeat calls
  // return the identical chain.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2)), path_names(cluster.fabric_path(0, 2)));
}

TEST(FatTreeRouting, AdaptiveDeviatesOffTheLoadedSpine) {
  Cluster cluster(
      spec_with(Topology::fat_tree(4, 0.5).routing(RoutingPolicy::kAdaptive), 8));
  cluster.enable_route_trace(true);
  // Unloaded fabric: cost 0 on the minimal spine is never above the
  // threshold, so adaptive routing degrades to minimal.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2))[3], "switch.spine1");
  // Saturate the minimal uplink; the next decision moves to spine0 (the
  // only alternative — deterministically, no tie to break).
  sim::ActivityPtr pin = load_link(cluster, "link.leaf0-spine1");
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2))[3], "switch.spine0");
  ASSERT_EQ(cluster.route_trace().size(), 2u);
  EXPECT_EQ(cluster.route_trace()[0].via, 1);
  EXPECT_EQ(cluster.route_trace()[1].via, 0);
  cluster.model().cancel(pin);
}

TEST(FatTreeRouting, ThresholdHoldsTheMinimalRouteUnderLightLoad) {
  Cluster cluster(spec_with(
      Topology::fat_tree(4, 0.5).routing(RoutingPolicy::kAdaptive).adaptive_threshold(2.0),
      8));
  // Even a saturated minimal spine stays below an impossible threshold.
  sim::ActivityPtr pin = load_link(cluster, "link.leaf0-spine1");
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2))[3], "switch.spine1");
  cluster.model().cancel(pin);
}

TEST(FatTreeRouting, RngTieBreaksAreSeedDeterministic) {
  // k = 8: four spines; loading the minimal one leaves three zero-cost
  // candidates, so every decision draws the cluster RNG.
  auto trace_of = [](std::uint64_t seed) {
    Cluster cluster(
        spec_with(Topology::fat_tree(8, 1.0).routing(RoutingPolicy::kAdaptive), 8, seed));
    cluster.enable_route_trace(true);
    sim::ActivityPtr pin = load_link(cluster, "link.leaf0-spine1");
    std::vector<int> vias;
    for (int i = 0; i < 8; ++i) {
      (void)cluster.fabric_path(0, 4);  // leaf0 -> leaf1: minimal spine 1
      vias.push_back(cluster.route_trace().back().via);
    }
    cluster.model().cancel(pin);
    return vias;
  };
  const std::vector<int> a = trace_of(42);
  const std::vector<int> b = trace_of(42);
  EXPECT_EQ(a, b);
  for (int via : a) EXPECT_NE(via, 1);  // never the loaded minimal spine
}

// ---- dragonfly routing ------------------------------------------------------

TEST(DragonflyRouting, LocalAndMinimalGlobalPaths) {
  Cluster cluster(spec_with(Topology::dragonfly(3, 2, 2), 12));
  cluster.enable_route_trace(true);
  // Same router: the crossbar alone.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 1)),
            (std::vector<std::string>{"node0.tx", "switch.g0.r0", "node1.rx"}));
  // Same group, different router: one local hop (via = -1 recorded).
  EXPECT_EQ(path_names(cluster.fabric_path(0, 2)),
            (std::vector<std::string>{"node0.tx", "switch.g0.r0", "link.g0.r0-g0.r1",
                                      "switch.g0.r1", "node2.rx"}));
  // Cross group, source on the gateway: one global hop.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 4)),
            (std::vector<std::string>{"node0.tx", "switch.g0.r0", "link.g0.r0-g1.r0",
                                      "switch.g1.r0", "node4.rx"}));
  ASSERT_EQ(cluster.route_trace().size(), 2u);
  EXPECT_EQ(cluster.route_trace()[0].via, -1);
  EXPECT_EQ(cluster.route_trace()[1].via, -1);
}

TEST(DragonflyRouting, AdaptiveTakesTheValiantDetourPastACongestedGlobal) {
  Cluster cluster(
      spec_with(Topology::dragonfly(3, 2, 2).routing(RoutingPolicy::kAdaptive), 12));
  cluster.enable_route_trace(true);
  sim::ActivityPtr pin = load_link(cluster, "link.g0.r0-g1.r0");
  Cluster::FabricPath path = cluster.fabric_path(0, 4);
  // UGAL detour via the only intermediate group (2): the longest route the
  // builders emit — and it still fits the FabricPath inline capacity.
  const std::vector<std::string> names = path_names(path);
  ASSERT_EQ(names.size(), 13u);
  EXPECT_LE(path.size(), 16u);
  EXPECT_EQ(names[4], "link.g0.r1-g2.r0");   // g0 gateway out to group 2
  EXPECT_EQ(names[8], "link.g2.r1-g1.r1");   // group 2 gateway into g1
  ASSERT_EQ(cluster.route_trace().size(), 1u);
  EXPECT_EQ(cluster.route_trace()[0].via, 2);
  cluster.model().cancel(pin);
  // With the pin gone the next registration reverts to minimal.
  EXPECT_EQ(path_names(cluster.fabric_path(0, 4)).size(), 5u);
  EXPECT_EQ(cluster.route_trace().back().via, -1);
}

TEST(DragonflyRouting, TwoGroupFabricNeverDetours) {
  // groups = 2: there is no intermediate group, so adaptive must hold the
  // minimal global route no matter the load.
  Cluster cluster(
      spec_with(Topology::dragonfly(2, 2, 2).routing(RoutingPolicy::kAdaptive), 8));
  cluster.enable_route_trace(true);
  sim::ActivityPtr pin = load_link(cluster, "link.g0.r0-g1.r0");
  (void)cluster.fabric_path(0, 4);
  ASSERT_EQ(cluster.route_trace().size(), 1u);
  EXPECT_EQ(cluster.route_trace()[0].via, -1);
  cluster.model().cancel(pin);
}

// ---- fabric metrics ---------------------------------------------------------

TEST(Fabric, RouteCountersRegisterOnMultiSwitchTopologiesOnly) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Registry::ScopedThreadLocal scope(reg);
  {
    Cluster single(spec_with(Topology::single_switch(), 2));
    (void)single.fabric_path(0, 1);
  }
  for (const auto& e : reg.snapshot().entries)
    EXPECT_EQ(e.name.rfind("net.fabric.", 0), std::string::npos) << e.name;
  {
    Cluster tree(spec_with(Topology::fat_tree(4), 8));
    (void)tree.fabric_path(0, 2);
    (void)tree.fabric_path(2, 4);
  }
  EXPECT_DOUBLE_EQ(reg.counter("net.fabric.routes").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.counter("net.fabric.adaptive_reroutes").value(), 0.0);
}

// ---- cross-shard carve: group graph, cut links, fabric replicas -------------

TEST(Topology, GroupGraphCondensesInterGroupCapacity) {
  // Dragonfly: one global link per ordered group pair folds to an
  // undirected edge of capacity 2; locals stay inside their group vertex.
  const Topology df = Topology::dragonfly(4, 2, 2);
  const sim::GroupGraph g = df.group_graph(16);
  EXPECT_EQ(g.groups, 4);
  ASSERT_EQ(g.load.size(), 4u);
  for (double l : g.load) EXPECT_EQ(l, 4.0);
  ASSERT_EQ(g.edges.size(), 6u);
  for (const sim::GroupGraph::Edge& e : g.edges) {
    EXPECT_LT(e.a, e.b);
    EXPECT_DOUBLE_EQ(e.capacity, 2.0);
  }
  // Fat-tree: every link touches a group-less spine, so the whole fabric
  // capacity (16 unit links) spreads uniformly over the 6 leaf pairs.
  const Topology ft = Topology::fat_tree(4);
  const sim::GroupGraph t = ft.group_graph(8);
  EXPECT_EQ(t.groups, 4);
  ASSERT_EQ(t.load.size(), 4u);
  for (double l : t.load) EXPECT_EQ(l, 2.0);
  ASSERT_EQ(t.edges.size(), 6u);
  for (const sim::GroupGraph::Edge& e : t.edges)
    EXPECT_DOUBLE_EQ(e.capacity, 16.0 / 6.0);
}

TEST(Topology, CutLinksFollowTheShardMap) {
  const NetworkParams net = NetworkParams::ib_edr();
  const Topology df = Topology::dragonfly(4, 2, 2);
  // Trivial map: nothing is cut.
  EXPECT_TRUE(df.cut_links({0, 0, 0, 0}).empty());
  // {0,1} vs {2,3}: exactly the 8 ordered global pairs across the split;
  // locals and same-side globals stay shard-internal.
  const std::vector<int> cut = df.cut_links({0, 0, 1, 1});
  EXPECT_EQ(cut.size(), 8u);
  for (int li : cut)
    EXPECT_EQ(df.links()[static_cast<std::size_t>(li)].cls, LinkClass::kGlobal);
  // A global-only cut earns the 3x lookahead; an empty cut falls back to
  // the topology's cross-group floor.
  EXPECT_DOUBLE_EQ(df.min_cut_delay(net, cut), 3.0 * net.min_remote_delay());
  EXPECT_DOUBLE_EQ(df.min_cut_delay(net, {}), df.min_remote_delay(net));

  // Fat-tree spines are shared fabric: any non-trivial carve cuts every
  // link, and leaf-spine hops keep the base (1x) lookahead.
  const Topology ft = Topology::fat_tree(4);
  const std::vector<int> tcut = ft.cut_links({0, 0, 1, 1});
  EXPECT_EQ(tcut.size(), ft.links().size());
  EXPECT_DOUBLE_EQ(ft.min_cut_delay(net, tcut), net.min_remote_delay());
}

TEST(FabricGraph, ReplicaMirrorsClusterResourcesExactly) {
  struct Case {
    Topology topo;
    int nodes;
  };
  const Case cases[] = {{Topology::single_switch(), 4},
                        {Topology::fat_tree(4, 0.5), 8},
                        {Topology::dragonfly(3, 2, 2), 12}};
  for (const Case& c : cases) {
    Cluster cluster(spec_with(c.topo, c.nodes));
    FabricGraph fg(c.topo, cluster.net(), c.nodes);
    for (int n = 0; n < c.nodes; ++n) {
      const sim::Resource* tx = cluster.fabric().at(fg.tx_key(n));
      const sim::Resource* rx = cluster.fabric().at(fg.rx_key(n));
      EXPECT_EQ(fg.name(fg.tx_key(n)), tx->name());
      EXPECT_EQ(fg.base_capacity(fg.tx_key(n)), tx->capacity());
      EXPECT_EQ(fg.name(fg.rx_key(n)), rx->name());
      EXPECT_EQ(fg.base_capacity(fg.rx_key(n)), rx->capacity());
    }
    const std::span<sim::Resource* const> fabric = cluster.fabric().switch_resources();
    for (int s = 0; s < c.topo.switch_count(); ++s) {
      EXPECT_EQ(fg.name(fg.xbar_key(s)), fabric[static_cast<std::size_t>(s)]->name());
      EXPECT_EQ(fg.base_capacity(fg.xbar_key(s)),
                fabric[static_cast<std::size_t>(s)]->capacity());
    }
    // Solver resource order: each node's machine and NIC, then its tx and
    // rx port; after every node, the crossbars and links in key order.
    const auto index = [&](int key) { return cluster.fabric().at(key)->index(); };
    const std::size_t stride = index(fg.tx_key(1)) - index(fg.tx_key(0));
    for (int n = 0; n < c.nodes; ++n) {
      EXPECT_EQ(index(fg.tx_key(n)), (static_cast<std::size_t>(n) + 1) * stride - 2) << n;
      EXPECT_EQ(index(fg.rx_key(n)), index(fg.tx_key(n)) + 1) << n;
    }
    for (int key = fg.xbar_key(0); key < fg.key_count(); ++key)
      EXPECT_EQ(index(key), static_cast<std::size_t>(c.nodes) * stride +
                                static_cast<std::size_t>(key - fg.xbar_key(0)))
          << key;
    EXPECT_EQ(cluster.model().solver().resource_count(),
              static_cast<std::size_t>(c.nodes) * stride +
                  static_cast<std::size_t>(fg.key_count() - fg.xbar_key(0)));
    const std::span<sim::Resource* const> links = cluster.fabric().link_resources();
    ASSERT_EQ(links.size(), c.topo.links().size());
    for (std::size_t li = 0; li < links.size(); ++li) {
      const int key = fg.link_key(static_cast<int>(li));
      EXPECT_EQ(fg.name(key), links[li]->name());
      EXPECT_EQ(fg.base_capacity(key), links[li]->capacity());
    }
  }
}

TEST(FabricGraph, MinimalPathMatchesTheClusterRoute) {
  struct Case {
    Topology topo;
    int nodes;
    std::vector<std::pair<int, int>> pairs;
  };
  const Case cases[] = {
      // Dragonfly 4x2x2: same router, same group, cross group (gateway on
      // and off the source/destination routers).
      {Topology::dragonfly(4, 2, 2), 16, {{0, 1}, {0, 2}, {0, 9}, {5, 14}, {2, 4}}},
      // Fat-tree k=4: same leaf and the deterministic (ls + ld) % 2 spine.
      {Topology::fat_tree(4), 8, {{0, 1}, {0, 2}, {1, 7}, {4, 6}}},
      {Topology::single_switch(), 4, {{0, 3}, {2, 1}}},
  };
  for (const Case& c : cases) {
    Cluster cluster(spec_with(c.topo, c.nodes));
    FabricGraph fg(c.topo, cluster.net(), c.nodes);
    for (auto [src, dst] : c.pairs) {
      const Cluster::FabricPath path = cluster.fabric_path(src, dst);
      std::vector<int> keys;
      fg.minimal_path(src, dst, keys);
      ASSERT_EQ(keys.size(), path.size()) << src << "->" << dst;
      for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(fg.name(keys[i]), path[i]->name()) << src << "->" << dst;
    }
  }
}

TEST(FabricGraph, AdaptiveRoutingIsRejectedAtConstruction) {
  // The graph also describes Cluster's adaptively routed fabrics, so the
  // adaptive half of this check lives in FabricLab::run_sharded
  // (FabricShard.AdaptiveRoutingIsRejected).  A node count beyond the
  // topology is still rejected here.
  EXPECT_THROW(FabricGraph(Topology::fat_tree(4), NetworkParams::ib_edr(), 9),
               std::invalid_argument);  // beyond max_hosts
}

// ---- route oracle over generated shapes -------------------------------------

struct Shape {
  Topology topo;
  int nodes;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    topo.serialize(os);
    os << " nodes=" << nodes;
    return os.str();
  }
};

/// Seeded small shapes: every fat-tree k = 2..8 at oversubscription 1 and
/// 0.5, dragonflies of 1-5 groups x 1-4 routers x 1-3 hosts, single
/// switches of 1-5 nodes.
std::vector<Shape> generated_shapes() {
  std::vector<Shape> shapes;
  for (int k = 2; k <= 8; k += 2)
    for (const double oversub : {1.0, 0.5})
      shapes.push_back({Topology::fat_tree(k, oversub), k * k / 2});
  sim::Rng rng(19);
  const auto draw = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (int i = 0; i < 16; ++i) {
    const int groups = draw(1, 5), routers = draw(1, 4), hosts = draw(1, 3);
    shapes.push_back({Topology::dragonfly(groups, routers, hosts), groups * routers * hosts});
  }
  for (int i = 0; i < 4; ++i) shapes.push_back({Topology::single_switch(), draw(1, 5)});
  return shapes;
}

/// Every `via` a route src -> dst may take, worked out from the shape
/// alone: any spine across fat-tree leaves, the direct global link (-1) or
/// any third group across dragonfly groups, else just the minimal one.
std::vector<int> legal_vias(const FabricGraph& fg, int src, int dst) {
  const Topology& t = fg.topology();
  const int a = t.host_switch(src);
  const int b = t.host_switch(dst);
  std::vector<int> vias;
  if (t.kind() == Topology::Kind::kFatTree && a != b) {
    for (int s = 0; s < t.param_k() / 2; ++s) vias.push_back(s);
  } else if (t.kind() == Topology::Kind::kDragonfly && t.group_of_switch(a) != t.group_of_switch(b)) {
    vias.push_back(-1);
    for (int g = 0; g < t.group_count(); ++g)
      if (g != t.group_of_switch(a) && g != t.group_of_switch(b)) vias.push_back(g);
  } else {
    vias.push_back(fg.minimal_via(src, dst));
  }
  return vias;
}

std::vector<int> route_keys(const FabricGraph& fg, int src, int dst, int via) {
  std::vector<int> keys;
  fg.route(src, dst, via, [&keys](int key) { keys.push_back(key); });
  return keys;
}

std::vector<std::string> key_names(const FabricGraph& fg, const std::vector<int>& keys) {
  std::vector<std::string> names;
  for (int key : keys) names.push_back(fg.name(key));
  return names;
}

/// Checks one route against the key layout and Topology::links() only:
/// tx port, then crossbars and links alternately from the source's edge
/// switch to the destination's, then rx port; every link joins the
/// crossbars beside it, none repeats, and the route fits FabricPath inline.
void expect_legal_route(const FabricGraph& fg, int src, int dst, int via,
                        const std::vector<int>& keys) {
  const Topology& t = fg.topology();
  const std::string where = std::to_string(src) + "->" + std::to_string(dst) +
                            " via " + std::to_string(via);
  ASSERT_GE(keys.size(), 3u) << where;
  ASSERT_EQ(keys.size() % 2, 1u) << where;
  EXPECT_LE(keys.size(), 13u) << where;
  EXPECT_EQ(keys.front(), fg.tx_key(src)) << where;
  EXPECT_EQ(keys.back(), fg.rx_key(dst)) << where;
  const auto switch_at = [&](std::size_t i) {
    EXPECT_GE(keys[i], fg.xbar_key(0)) << where << " key " << i;
    EXPECT_LT(keys[i], fg.link_key(0)) << where << " key " << i;
    return keys[i] - fg.xbar_key(0);
  };
  EXPECT_EQ(switch_at(1), t.host_switch(src)) << where;
  EXPECT_EQ(switch_at(keys.size() - 2), t.host_switch(dst)) << where;
  std::set<int> links;
  for (std::size_t i = 2; i + 2 < keys.size(); i += 2) {
    ASSERT_GE(keys[i], fg.link_key(0)) << where << " key " << i;
    ASSERT_LT(keys[i], fg.key_count()) << where << " key " << i;
    const Topology::Link& l = t.links()[static_cast<std::size_t>(keys[i] - fg.link_key(0))];
    EXPECT_EQ(l.src, switch_at(i - 1)) << where << " key " << i;
    EXPECT_EQ(l.dst, switch_at(i + 1)) << where << " key " << i;
    EXPECT_TRUE(links.insert(keys[i]).second) << where << " repeats key " << keys[i];
  }
  // The route deviates where `via` says: through that spine, or through a
  // crossbar of that intermediate group.
  if (t.kind() == Topology::Kind::kFatTree && keys.size() > 3) {
    EXPECT_EQ(switch_at(3), t.param_k() + via) << where;
  } else if (t.kind() == Topology::Kind::kDragonfly && via >= 0) {
    bool visits = false;
    for (std::size_t i = 1; i + 1 < keys.size(); i += 2)
      visits = visits || t.group_of_switch(switch_at(i)) == via;
    EXPECT_TRUE(visits) << where;
  }
}

TEST(FabricRouting, EveryViaRoutesOverTopologyLinksOnGeneratedShapes) {
  for (const Shape& shape : generated_shapes()) {
    SCOPED_TRACE(shape.describe());
    const FabricGraph fg(shape.topo, NetworkParams::ib_edr(), shape.nodes);
    for (int src = 0; src < shape.nodes; ++src)
      for (int dst = 0; dst < shape.nodes; ++dst) {
        std::size_t shortest = 0;
        for (const int via : legal_vias(fg, src, dst)) {
          const std::vector<int> keys = route_keys(fg, src, dst, via);
          expect_legal_route(fg, src, dst, via, keys);
          if (shortest == 0 || keys.size() < shortest) shortest = keys.size();
        }
        // The minimal route is a legal one, and no legal route is shorter.
        const int minimal = fg.minimal_via(src, dst);
        std::vector<int> keys;
        fg.minimal_path(src, dst, keys);
        expect_legal_route(fg, src, dst, minimal, keys);
        EXPECT_EQ(keys.size(), shortest) << src << "->" << dst;
      }
  }
}

TEST(FabricRouting, ClusterRoutesAgreeWithTheGraphOnGeneratedShapes) {
  for (const Shape& shape : generated_shapes()) {
    SCOPED_TRACE(shape.describe());
    Topology adaptive_topo = shape.topo;
    adaptive_topo.routing(RoutingPolicy::kAdaptive).adaptive_threshold(0.0);
    Cluster minimal(spec_with(shape.topo, shape.nodes));
    Cluster adaptive(spec_with(adaptive_topo, shape.nodes));
    const FabricGraph& fg = minimal.fabric();
    for (int src = 0; src < shape.nodes; ++src)
      for (int dst = 0; dst < shape.nodes; ++dst) {
        std::vector<int> keys;
        fg.minimal_path(src, dst, keys);
        EXPECT_EQ(path_names(minimal.fabric_path(src, dst)), key_names(fg, keys))
            << src << "->" << dst;
        // Pin the minimal route's first uplink or global link — the link
        // adaptive routing weighs — at utilization 1.
        int pinned_key = -1;
        for (const int key : keys) {
          if (key < fg.link_key(0) || key >= fg.key_count()) continue;
          const LinkClass cls =
              shape.topo.links()[static_cast<std::size_t>(key - fg.link_key(0))].cls;
          if (cls == LinkClass::kUp || cls == LinkClass::kGlobal) {
            pinned_key = key;
            break;
          }
        }
        sim::ActivityPtr pin;
        if (pinned_key >= 0) pin = load_link(adaptive, fg.name(pinned_key).c_str());
        const std::vector<std::string> taken = path_names(adaptive.fabric_path(src, dst));
        if (pin) adaptive.model().cancel(pin);
        const std::vector<int> vias = legal_vias(fg, src, dst);
        bool legal = false;
        for (const int via : vias)
          legal = legal || taken == key_names(fg, route_keys(fg, src, dst, via));
        EXPECT_TRUE(legal) << src << "->" << dst;
        // Every other candidate is idle, so any alternative beats the pin.
        if (vias.size() > 1) {
          for (const std::string& name : taken)
            EXPECT_NE(name, fg.name(pinned_key)) << src << "->" << dst;
        }
      }
  }
}

// ---- resource names ---------------------------------------------------------

/// The names a cluster's resources had when each was formatted at
/// registration, in index order: per node its machine's cores, memory
/// controllers, meshes (NUMA-split sockets only) and cross-socket link,
/// its NIC's DMA engine, its tx and rx ports; then every crossbar and link
/// in key order.
std::vector<std::string> eager_names(const hw::MachineConfig& m, const FabricGraph& fg,
                                     int nodes) {
  std::vector<std::string> names;
  for (int n = 0; n < nodes; ++n) {
    const std::string prefix = "node" + std::to_string(n) + ".";
    for (int i = 0; i < m.total_cores(); ++i) names.push_back(prefix + "core" + std::to_string(i));
    for (int i = 0; i < m.numa_count(); ++i)
      names.push_back(prefix + "memctrl" + std::to_string(i));
    if (m.numa_per_socket > 1)
      for (int s = 0; s < m.sockets; ++s) names.push_back(prefix + "mesh" + std::to_string(s));
    names.push_back(prefix + "xsocket");
    names.push_back(prefix + "nic-dma");
    names.push_back(fg.name(fg.tx_key(n)));
    names.push_back(fg.name(fg.rx_key(n)));
  }
  for (int key = fg.xbar_key(0); key < fg.key_count(); ++key) names.push_back(fg.name(key));
  return names;
}

/// Every resource of `cluster` through its public handles, in the order
/// eager_names() lists them.
std::vector<const sim::Resource*> cluster_resources(Cluster& cluster) {
  std::vector<const sim::Resource*> res;
  const FabricGraph& fg = cluster.fabric();
  for (int n = 0; n < cluster.node_count(); ++n) {
    hw::Machine& m = cluster.machine(n);
    const hw::MachineConfig& c = m.config();
    for (int i = 0; i < c.total_cores(); ++i) res.push_back(m.core(i));
    for (int i = 0; i < c.numa_count(); ++i) res.push_back(m.mem_ctrl(i));
    for (int s = 0; s < c.sockets; ++s)
      if (m.intra_link(s) != nullptr) res.push_back(m.intra_link(s));
    res.push_back(m.cross_link());
    res.push_back(cluster.nic(n).dma_engine());
    res.push_back(fg.at(fg.tx_key(n)));
    res.push_back(fg.at(fg.rx_key(n)));
  }
  for (const sim::Resource* r : fg.switch_resources()) res.push_back(r);
  return res;
}

/// Registered metric names derived from resource names or node prefixes.
std::vector<std::string> named_metrics(const obs::Registry& reg) {
  std::vector<std::string> names;
  for (const obs::Snapshot::Entry& e : reg.snapshot().entries)
    if (e.name.starts_with("sim.resource.") || e.name.starts_with("hw.freq.") ||
        e.name.ends_with("nic-dma.queue_depth"))
      names.push_back(e.name);
  return names;
}

/// What a registry-on build registered for those names, name-sorted.
std::vector<std::string> eager_metrics(const hw::MachineConfig& m,
                                       const std::vector<std::string>& resources, int nodes) {
  std::vector<std::string> names;
  for (const std::string& r : resources)
    for (const char* field : {".work_units", ".utilization", ".pressure"})
      names.push_back("sim.resource." + r + field);
  for (int n = 0; n < nodes; ++n) {
    const std::string prefix = "node" + std::to_string(n) + ".";
    for (int c = 0; c < m.total_cores(); ++c)
      names.push_back("hw.freq." + prefix + "core" + std::to_string(c) + "_hz");
    for (int s = 0; s < m.sockets; ++s)
      names.push_back("hw.freq." + prefix + "uncore" + std::to_string(s) + "_hz");
    names.push_back("net." + prefix + "nic-dma.queue_depth");
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Cluster, ResourceNamesMatchTheEagerNames) {
  for (const hw::MachineConfig& machine : hw::MachineConfig::all_presets())
    for (const Shape& shape : generated_shapes()) {
      SCOPED_TRACE(machine.name + " " + shape.describe());
      ClusterSpec spec = spec_with(shape.topo, shape.nodes);
      spec.machine = machine;
      Cluster cluster(spec);
      const std::vector<std::string> want = eager_names(machine, cluster.fabric(), shape.nodes);
      const std::vector<const sim::Resource*> res = cluster_resources(cluster);
      ASSERT_EQ(res.size(), want.size());
      ASSERT_EQ(cluster.model().solver().resource_count(), want.size());
      for (std::size_t i = 0; i < res.size(); ++i) {
        EXPECT_EQ(res[i]->index(), i);
        EXPECT_EQ(res[i]->name(), want[i]) << i;
      }
      // A registry-on build binds every resource as it registers it.
      obs::Registry reg;
      reg.set_enabled(true);
      {
        const obs::Registry::ScopedThreadLocal scope(reg);
        const Cluster bound(spec);
      }
      EXPECT_EQ(named_metrics(reg), eager_metrics(machine, want, shape.nodes));
    }

  // A standalone machine (empty prefix) and an ad-hoc name from the
  // model's own table.
  sim::Engine engine;
  sim::FlowModel model(engine);
  hw::Machine machine(model, hw::MachineConfig::henri());
  hw::GpuDevice gpu(machine, hw::GpuConfig{});
  const hw::MachineConfig& c = machine.config();
  EXPECT_EQ(machine.core(0)->name(), "core0");
  EXPECT_EQ(machine.core(c.total_cores() - 1)->name(),
            "core" + std::to_string(c.total_cores() - 1));
  EXPECT_EQ(machine.mem_ctrl(c.numa_count() - 1)->name(),
            "memctrl" + std::to_string(c.numa_count() - 1));
  EXPECT_EQ(machine.intra_link(1)->name(), "mesh1");
  EXPECT_EQ(machine.cross_link()->name(), "xsocket");
  EXPECT_EQ(machine.cross_link()->index() + 1, gpu.pcie()->index());
  EXPECT_EQ(gpu.pcie()->name(), "gpu0.pcie");
}

// ---- route-trace ring -------------------------------------------------------

TEST(Fabric, RouteTraceRingKeepsTheTailAndCountsEvictions) {
  Cluster cluster(spec_with(Topology::fat_tree(4), 8));
  cluster.enable_route_trace(true);
  EXPECT_EQ(cluster.route_trace_capacity(), 65536u);  // default ring bound
  cluster.set_route_trace_capacity(4);
  const std::pair<int, int> routed[6] = {{0, 2}, {0, 4}, {0, 6},
                                         {2, 4}, {2, 6}, {4, 6}};
  for (auto [src, dst] : routed) (void)cluster.fabric_path(src, dst);
  EXPECT_EQ(cluster.route_trace_dropped(), 2u);
  const std::vector<Cluster::RouteChoice> trace = cluster.route_trace();
  ASSERT_EQ(trace.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [src, dst] = routed[i + 2];
    EXPECT_EQ(trace[i].src, src) << i;
    EXPECT_EQ(trace[i].dst, dst) << i;
    // Minimal fat-tree routing records its deterministic (ls + ld) % spines
    // pick, which is what lets reroute accounting spot adaptive deviations.
    EXPECT_EQ(trace[i].via, (src / 2 + dst / 2) % 2) << i;
  }
  // Resizing clears the ring and the eviction counter.
  cluster.set_route_trace_capacity(8);
  EXPECT_TRUE(cluster.route_trace().empty());
  EXPECT_EQ(cluster.route_trace_dropped(), 0u);
}

}  // namespace
}  // namespace cci::net
