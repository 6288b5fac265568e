// InterferenceLab: the paper's benchmarking protocol (§2.1).
//
//   (1) computation without communication,
//   (2) communication without computation,
//   (3) computation with side-by-side communication,
//
// on a two-node simulated cluster, symmetric on both nodes (MPI+OpenMP:
// one communication thread, N computing threads per node).  Results carry
// medians and deciles exactly as the paper plots them.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/compute_team.hpp"
#include "core/scenario.hpp"
#include "mpi/pingpong.hpp"
#include "mpi/world.hpp"
#include "sim/attribution.hpp"
#include "trace/stats.hpp"

namespace cci::core {

struct CommPhase {
  trace::Stats latency;    ///< half round-trip (s)
  trace::Stats bandwidth;  ///< message bytes / latency (B/s)
};

struct ComputePhase {
  trace::Stats pass_duration;       ///< per-pass wall time (s)
  trace::Stats per_core_bandwidth;  ///< DRAM B/s per core (0 if cache-resident)
  double mem_stall_fraction = 0.0;
};

struct SideBySideResult {
  ComputePhase compute_alone;
  CommPhase comm_alone;
  ComputePhase compute_together;
  CommPhase comm_together;
  /// Victim/aggressor decomposition of the side-by-side phase (filled only
  /// when attribution is enabled — see InterferenceLab::set_attribution).
  sim::AttributionReport attribution;
};

class InterferenceLab {
 public:
  /// Throws std::invalid_argument when scenario.computing_cores is below 0
  /// or above machine.total_cores() - 1 (one core hosts the communication
  /// thread), instead of running fewer computing threads than asked for.
  explicit InterferenceLab(Scenario scenario);
  ~InterferenceLab();

  /// Run the full three-phase protocol.
  SideBySideResult run();

  /// Phase primitives, for benches that need only part of the protocol.
  CommPhase run_comm_alone(int tag_base = 1000);
  ComputePhase run_compute_alone();
  /// Runs computation and the ping-pong together; fills both out-params.
  void run_together(ComputePhase& compute, CommPhase& comm, int tag_base = 2000);

  const Scenario& scenario() const { return scenario_; }
  net::Cluster& cluster() { return *cluster_; }
  mpi::World& world() { return *world_; }

  /// Decompose the side-by-side phase into isolated time vs contention
  /// delay per workload class (exact, from the flow model's rate history).
  /// Defaults to the ambient obs::run_sampling().attribution flag so
  /// campaign-driven runs opt in without a Scenario field (Scenario feeds
  /// the content-addressed cache key, which must stay stable).
  void set_attribution(bool on) { attribution_ = on; }
  [[nodiscard]] bool attribution() const { return attribution_; }

  /// Ping-pong bandwidth summary: Stats of bytes / lat over the positive
  /// entries of an ascending-sorted latency vector, bitwise equal to
  /// Stats::of over the same bandwidths in any order.
  static trace::Stats bandwidth_stats(const std::vector<double>& sorted_latencies,
                                      std::size_t bytes);

 private:
  std::unique_ptr<ComputeTeam> make_team(int node);
  static ComputePhase summarize(const ComputeTeam& team);
  static CommPhase summarize(std::vector<double> latencies, std::size_t bytes);

  Scenario scenario_;
  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<mpi::World> world_;
  bool attribution_ = false;
};

}  // namespace cci::core
