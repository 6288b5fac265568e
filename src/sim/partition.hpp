// Topology-group partitioning for cross-shard fabric simulation.
//
// Traffic on a hot fabric couples every resource into one solver
// component, so a carve that keeps components whole degenerates
// ShardGroup to serial on a thousand-node fat-tree/dragonfly.  This
// module cuts the topology instead: given the *topology group graph*
// (groups as vertices weighted by host count, inter-group links as edges
// weighted by capacity), partition_groups() maps every group to a shard,
// cutting at minimum-boundary-capacity edges while keeping per-shard host
// load balanced.  The cut links become boundary proxy resources
// (ShardGroup::add_boundary_link) whose capacities are exchanged at every
// window barrier; the smaller the cut capacity, the less proxy traffic and
// the weaker the cross-shard coupling the exchange has to track.
//
// Determinism: the partition is a pure function of the GroupGraph — a
// contiguous-by-load initial split refined by bounded, strictly-improving
// boundary moves scanned in vertex order.  No RNG, no pointers, no
// hashing, so a fixed shard count always produces the same carve.
#pragma once

#include <vector>

namespace cci::sim {

/// Condensed topology: one vertex per carve-eligible group (dragonfly
/// group, fat-tree leaf), one undirected edge per inter-group coupling.
/// Shared fabric that belongs to no group (fat-tree spines) is modelled by
/// the edges it induces, not as a vertex.
struct GroupGraph {
  struct Edge {
    int a = 0;
    int b = 0;
    double capacity = 0.0;  ///< summed bandwidth of links cut if a, b split
  };
  int groups = 0;
  std::vector<double> load;  ///< per-group weight (hosts attached)
  std::vector<Edge> edges;
};

/// Deterministic map group -> shard for `shards` shards (all >= 1 even if
/// some end up empty; callers assert >1 *populated* shard where it
/// matters).  groups <= shards degenerates to the identity.  Otherwise:
/// contiguous runs of groups with near-equal total load seed the split,
/// then a bounded refinement pass moves boundary groups between adjacent
/// shards whenever the move strictly lowers total cut capacity without
/// worsening the maximum shard load.  Every group is assigned a shard in
/// [0, shards); with groups > shards no shard is left empty.
std::vector<int> partition_groups(const GroupGraph& graph, int shards);

/// Total capacity of edges whose endpoints land on different shards.
double cut_capacity(const GroupGraph& graph, const std::vector<int>& shard_of);

/// Largest per-shard load sum under `shard_of`.
double max_shard_load(const GroupGraph& graph, const std::vector<int>& shard_of);

}  // namespace cci::sim
