// A simulated node: cores, NUMA memory controllers, on-chip links.
//
// Machine instantiates the config as FlowModel resources and provides path
// resolution (which resources a memory stream crosses) plus the
// queueing-delay model for individual memory transactions.  It names its
// resources on demand (sim::ResourceNamer): `<prefix>core<i>`,
// `<prefix>memctrl<n>`, `<prefix>mesh<s>`, `<prefix>xsocket`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine_config.hpp"
#include "sim/flow_model.hpp"

namespace cci::hw {

class FrequencyGovernor;

class Machine : private sim::ResourceNamer {
 public:
  /// Builds all resources inside `model`, in the order cores, memory
  /// controllers, meshes, cross-socket link; `prefix` namespaces resource
  /// names so several nodes can share one model (e.g. "node0.").  Throws
  /// std::invalid_argument before building anything when `config` is not a
  /// dual-socket node with >= 1 NUMA node per socket and >= 1 core per NUMA
  /// node, when nic_numa is not one of its NUMA nodes, or when a capacity
  /// field is negative or not finite.
  Machine(sim::FlowModel& model, MachineConfig config, std::string prefix = "");
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  /// Namespace of this machine's resource names (e.g. "node0.").
  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  sim::FlowModel& model() { return model_; }
  sim::Engine& engine() { return model_.engine(); }
  FrequencyGovernor& governor() { return *governor_; }

  /// Core resource: capacity is the core's current frequency in cycles/s.
  sim::Resource* core(int i) { return cores_.at(static_cast<std::size_t>(i)); }
  sim::Resource* mem_ctrl(int numa) { return mem_ctrls_.at(static_cast<std::size_t>(numa)); }
  /// Link between the two sockets (this model assumes dual-socket nodes).
  sim::Resource* cross_link() { return cross_link_; }
  /// Mesh between NUMA nodes of one socket; null when numa_per_socket == 1.
  sim::Resource* intra_link(int socket) {
    return intra_links_.empty() ? nullptr : intra_links_.at(static_cast<std::size_t>(socket));
  }

  /// Resources a sustained memory stream crosses from an agent on
  /// `from_numa` to data homed on `data_numa` (controller always included).
  [[nodiscard]] std::vector<sim::Resource*> mem_path(int from_numa, int data_numa);

  /// Latency of one dependent memory transaction from `from_numa` to data
  /// on `data_numa`, inflated by current demand pressure on the crossed
  /// resources.  This is the small-message/queueing side of contention.
  [[nodiscard]] double mem_access_latency(int from_numa, int data_numa) const;

  /// Queueing inflation factor for one resource: 1 + kappa*min(P,clamp)^2.
  [[nodiscard]] double inflation(const sim::Resource* r) const;

  /// Latency multiplier from the socket's current uncore frequency: 1.0 at
  /// max uncore, 1 + uncore_latency_penalty at min.
  [[nodiscard]] double uncore_latency_scale(int socket) const;

  /// Extra latency for crossing sockets (pressure-inflated), used by the
  /// PIO path when the communication thread is far from the NIC.
  [[nodiscard]] double cross_socket_hop_latency() const;

 private:
  [[nodiscard]] std::string resource_name(std::uint32_t key) const override;

  sim::FlowModel& model_;
  MachineConfig config_;
  std::string prefix_;
  std::vector<sim::Resource*> cores_;
  std::vector<sim::Resource*> mem_ctrls_;
  std::vector<sim::Resource*> intra_links_;
  sim::Resource* cross_link_ = nullptr;
  std::unique_ptr<FrequencyGovernor> governor_;
};

}  // namespace cci::hw
