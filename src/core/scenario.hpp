// Scenario: one experiment configuration in the paper's vocabulary.
//
// Placement is expressed relative to the NIC (§4.3): the communication
// thread and the data (used by both computation and communication) are each
// either near the NIC (its NUMA node) or far from it (the other socket).
// Computing threads fill cores in logical numbering order, as the paper's
// benchmark does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine_config.hpp"
#include "hw/workload.hpp"
#include "net/network_params.hpp"
#include "net/topology.hpp"

namespace cci::core {

enum class Placement { kNearNic, kFarFromNic };

inline const char* to_string(Placement p) {
  return p == Placement::kNearNic ? "near" : "far";
}

/// Traffic a tenant drives across its nodes (core::FabricLab).
enum class TrafficPattern {
  kPairs,  ///< rank 2i -> rank 2i+1, disjoint streams
  kRing,   ///< rank i -> rank (i+1) % n, every node sends and receives
};

inline const char* to_string(TrafficPattern p) {
  return p == TrafficPattern::kPairs ? "pairs" : "ring";
}

/// One tenant of a multi-job scenario: the cluster nodes its ranks occupy
/// (rank r runs on nodes[r]) and the bulk traffic it injects.  Scenarios
/// with an empty `jobs` list are the paper's single-job experiments.
struct JobSpec {
  std::string label = "job";
  std::vector<int> nodes;              ///< rank -> cluster node (non-empty, >= 0)
  std::size_t message_bytes = 1 << 20;  ///< rendezvous-sized by default
  int iterations = 4;                   ///< send windows per stream (>= 1)
  double offered_load = 1.0;            ///< injection rate, fraction of wire bw (> 0)
  TrafficPattern pattern = TrafficPattern::kPairs;
};

struct Scenario {
  hw::MachineConfig machine = hw::MachineConfig::henri();
  net::NetworkParams network = net::NetworkParams::ib_edr();
  /// Fabric graph the cluster is built on.  The default single switch
  /// reproduces the paper's 2-node fabric bit-for-bit.
  net::Topology topology = net::Topology::single_switch();
  /// Multi-tenant co-scheduling (fat-tree/dragonfly studies); empty for
  /// the paper's single-job scenarios.
  std::vector<JobSpec> jobs;

  Placement comm_thread = Placement::kFarFromNic;
  Placement data = Placement::kNearNic;

  int computing_cores = 0;
  /// Kernel run by the computing threads (defaults to STREAM TRIAD).
  hw::KernelTraits kernel{"stream-triad", 2.0, 24.0, hw::VectorClass::kSse};

  std::size_t message_bytes = 4;
  int pingpong_iterations = 50;
  int pingpong_warmup = 5;
  int compute_repetitions = 8;
  /// Nominal single-pass duration used to size the per-core work.
  double target_pass_seconds = 0.05;

  std::uint64_t seed = 42;

  /// Core hosting the communication thread: last core of the NIC's NUMA
  /// node (near) or last core of the machine (far).
  [[nodiscard]] int comm_core() const {
    if (comm_thread == Placement::kNearNic)
      return (machine.nic_numa + 1) * machine.cores_per_numa - 1;
    return machine.total_cores() - 1;
  }

  /// NUMA node holding all benchmark data (§4.2 allocates on one node).
  [[nodiscard]] int data_numa() const {
    return data == Placement::kNearNic ? machine.nic_numa : machine.numa_count() - 1;
  }

  /// Computing cores in logical order, skipping the communication core.
  [[nodiscard]] std::vector<int> compute_cores() const {
    std::vector<int> cores;
    int comm = comm_core();
    for (int c = 0; c < machine.total_cores() && static_cast<int>(cores.size()) < computing_cores;
         ++c)
      if (c != comm) cores.push_back(c);
    return cores;
  }

  /// Solo (uncontended) progress rate of the kernel on one core, used to
  /// size per-pass work: min(cpu roofline, per-core memory bandwidth on
  /// the DRAM-visible traffic only).
  [[nodiscard]] double solo_rate() const {
    double cpu = machine.core_freq_nominal_hz / hw::cycles_per_iter(machine, kernel);
    double dram_bytes =
        kernel.bytes_per_iter * kernel.dram_fraction(machine.llc_bytes_per_socket);
    if (dram_bytes <= 0.0) return cpu;
    return std::min(cpu, machine.per_core_mem_bw / dram_bytes);
  }
  [[nodiscard]] double iters_per_pass() const { return target_pass_seconds * solo_rate(); }
};

}  // namespace cci::core
