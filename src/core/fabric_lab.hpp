// FabricLab: multi-tenant traffic driver over a topology cluster.
//
// Where InterferenceLab reproduces the paper's single-job comm/compute
// interference on 2 nodes, FabricLab drives the *network* analogue: each
// JobSpec of the scenario is a tenant injecting bulk traffic (pairs or
// ring streams, open-loop at `offered_load` x wire rate) across the
// scenario's fat-tree/dragonfly fabric.  Reports per-tenant delivered
// bandwidth and delivery latency (vs the injection schedule, so queueing
// past the congestion knee is visible), per-link utilization peaks,
// and the fabric routing counters — the raw material of the
// job_interference and congestion_onset figures.
//
// Both entry points plan the same streams (tags, buffer ids, injection
// gaps, source and destination nodes) and build tenant rows the same
// way; they differ in the traffic model.  run() drives every stream
// through a net::Cluster and mpi::World: NIC/DMA stages, rendezvous,
// adaptive routing.  run_sharded() runs each stream as one fluid transfer
// over net::FabricGraph replicas of the fabric (ports, crossbars, links),
// so compare its results across shard counts, not against run()'s.
//
// Determinism: one fresh Cluster per run (same seed), traffic coroutines
// spawned in job/stream order, link utilization sampled at delivery
// events plus a fixed mid-injection probe grid (symmetric tenants can
// complete flows exactly at every delivery instant, so mid-grid probes
// are what observe the fabric in flight).  Runs are bitwise-reproducible
// under campaign threads, shard-parallel simulation and schedule
// exploration like every other lab.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "trace/stats.hpp"

namespace cci::core {

/// One tenant's outcome.
struct TenantReport {
  std::string label;
  double bytes = 0.0;        ///< payload bytes delivered
  double finish = 0.0;       ///< last delivery (sim seconds)
  double achieved_bw = 0.0;  ///< bytes / finish
  /// Per-message delivery latency measured against the open-loop injection
  /// schedule: delivery time - scheduled injection time.  Queueing behind
  /// congested links shows up here before bandwidth collapses.
  trace::Stats delivery_latency;
};

/// One fabric link's utilization peak over the samples: delivery events
/// plus, in run(), the midpoints of the injection grid and, in
/// run_sharded(), the window barriers (boundary links).
struct LinkReport {
  std::string name;
  double peak = 0.0;
};

struct FabricReport {
  std::vector<TenantReport> tenants;  ///< scenario job order
  std::vector<LinkReport> links;      ///< Topology::links() order
  double elapsed = 0.0;               ///< last delivery across all tenants
  double total_bytes = 0.0;
  double aggregate_bw = 0.0;  ///< total_bytes / elapsed
  std::uint64_t routes = 0;   ///< fabric routing decisions this run
  std::uint64_t reroutes = 0; ///< adaptive deviations from the minimal route
  /// Link loads the peak sampling read (summed across shards): the first
  /// sample reads every link, later ones only links whose load changed.
  std::uint64_t link_reads = 0;
  // ---- run_sharded() only (all zero after a serial run()) ------------------
  int shards = 0;            ///< shard count the fabric was carved across
  int populated_shards = 0;  ///< shards that actually ran streams
  int boundary_links = 0;    ///< cut resources exchanged at barriers
  std::uint64_t windows = 0;    ///< conservative windows executed
  std::uint64_t exchanges = 0;  ///< boundary capacity updates delivered
  /// Resources the shard replicas materialized, summed: each replica holds
  /// only the fabric keys its own streams route over.
  std::uint64_t replica_resources = 0;
  std::uint64_t solver_flow_visits = 0;  ///< summed across shard solvers
  std::uint64_t events = 0;              ///< summed engine events
  [[nodiscard]] const TenantReport* tenant(std::string_view label) const;
};

class FabricLab {
 public:
  explicit FabricLab(Scenario scenario);
  ~FabricLab();

  /// Run the scenario's jobs to completion on a fresh cluster and report.
  /// A non-empty `only` runs just the tenant with that label on the same
  /// fabric — the "alone" baseline of the victim/aggressor slowdown
  /// matrix, with identical placement and routing.  Every run entry point
  /// throws std::invalid_argument, naming the tenant and field, for a
  /// tenant with iterations < 1, a non-finite or non-positive
  /// offered_load, message_bytes == 0, no nodes, or a node index that is
  /// negative or beyond the hosts the topology attaches.
  FabricReport run(std::string_view only = {});
  /// Run only the tenants whose labels appear in `labels` (empty = all):
  /// the "together" cells of the slowdown matrix pair a victim with one
  /// aggressor while every other tenant stays silent.  Placement, stream
  /// tags and buffer ids are identical across subsets.
  FabricReport run(const std::vector<std::string>& labels);
  /// Braced label lists (`run({"victim", "aggressor"})`) would otherwise be
  /// ambiguous against the string_view overload's C++20 iterator-pair
  /// constructor; list-initialization prefers this overload.
  FabricReport run(std::initializer_list<std::string> labels) {
    return run(std::vector<std::string>(labels));
  }

  /// Cross-shard fabric simulation: carve the topology at group boundaries
  /// (sim::partition_groups over Topology::group_graph), run every stream
  /// as a fluid transfer on its source node's shard over that shard's
  /// lean net::FabricGraph replica (only the keys its own streams route
  /// over), and exchange the capacity of *boundary proxies* — resources
  /// the static routes of several shards share — at every window barrier
  /// (sim::ShardGroup::add_boundary_link).  The window is
  /// Topology::min_cut_delay over the links the carve actually cuts, so a
  /// dragonfly split at global links runs 3x longer windows than the
  /// generic floor and stays conservative.
  ///
  /// `shards` must be >= 1 (std::invalid_argument otherwise).  At
  /// shards == 1 this is the plain serial engine — no workers, proxies or
  /// barriers — and bitwise-identical across runs; at a fixed shard count
  /// > 1 runs are bitwise run-to-run deterministic (the exchange and the
  /// barrier probe visit links in a fixed order).  Requires kMinimal
  /// routing: adaptive routing reads global utilization and the cluster
  /// RNG, neither of which survives the carve.  This is the fluid-fabric
  /// model (tx port, crossbars, links, rx port; no NIC/DMA stages), so
  /// compare run_sharded results across shard counts and against each
  /// other — not against run().
  FabricReport run_sharded(int shards);

  /// Cluster of the most recent run().  Route traces are always recorded
  /// (Cluster::route_trace), so determinism tests can byte-compare the
  /// exact sequence of routing decisions.
  net::Cluster& cluster() { return *cluster_; }

 private:
  Scenario scenario_;
  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<mpi::World> world_;
};

}  // namespace cci::core
