#include "hw/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "hw/frequency_governor.hpp"

namespace cci::hw {

namespace {

/// Throws std::invalid_argument naming the first field the node model
/// cannot instantiate: the derived helpers divide by numa_per_socket and
/// cores_per_numa, and capacity fields end up in FlowModel resources.
void validate(const MachineConfig& c) {
  auto fail = [&c](const std::string& what) {
    throw std::invalid_argument("Machine '" + c.name + "': " + what);
  };
  if (c.sockets != 2)
    fail("sockets = " + std::to_string(c.sockets) + ", the node model is dual-socket");
  if (c.numa_per_socket < 1) fail("numa_per_socket must be >= 1");
  if (c.cores_per_numa < 1) fail("cores_per_numa must be >= 1");
  if (c.nic_numa < 0 || c.nic_numa >= c.numa_count())
    fail("nic_numa = " + std::to_string(c.nic_numa) + " outside [0, " +
         std::to_string(c.numa_count()) + ")");
  // Every field a core, memory-controller or link capacity is computed from.
  const std::pair<const char*, double> capacities[] = {
      {"core_freq_min_hz", c.core_freq_min_hz},
      {"core_freq_nominal_hz", c.core_freq_nominal_hz},
      {"comm_core_freq_hz", c.comm_core_freq_hz},
      {"uncore_freq_min_hz", c.uncore_freq_min_hz},
      {"uncore_freq_max_hz", c.uncore_freq_max_hz},
      {"uncore_min_mem_scale", c.uncore_min_mem_scale},
      {"mem_bw_per_numa", c.mem_bw_per_numa},
      {"cross_socket_bw", c.cross_socket_bw},
      {"intra_socket_bw", c.intra_socket_bw},
  };
  for (const auto& [field, v] : capacities)
    if (!std::isfinite(v) || v < 0.0) fail(std::string(field) + " must be finite and >= 0");
  for (const auto* table : {&c.turbo_scalar, &c.turbo_avx2, &c.turbo_avx512})
    for (const TurboStep& step : *table)
      if (!std::isfinite(step.freq_hz) || step.freq_hz < 0.0)
        fail("turbo table frequencies must be finite and >= 0");
}

/// A resource's key: its part in the high byte, the part's index below.
enum Part : std::uint32_t { kCore, kMemCtrl, kMesh, kXsocket };
constexpr std::uint32_t part_key(Part part, int index) {
  return part << 24 | static_cast<std::uint32_t>(index);
}

}  // namespace

Machine::Machine(sim::FlowModel& model, MachineConfig config, std::string prefix)
    : model_(model), config_(std::move(config)), prefix_(std::move(prefix)) {
  validate(config_);
  const int n_cores = config_.total_cores();
  cores_.reserve(static_cast<std::size_t>(n_cores));
  for (int i = 0; i < n_cores; ++i) {
    // Initial capacity: minimum frequency (idle, ondemand); the governor
    // re-applies policy immediately after construction.
    cores_.push_back(model_.add_resource(*this, part_key(kCore, i), config_.core_freq_min_hz));
  }
  mem_ctrls_.reserve(static_cast<std::size_t>(config_.numa_count()));
  for (int n = 0; n < config_.numa_count(); ++n) {
    mem_ctrls_.push_back(
        model_.add_resource(*this, part_key(kMemCtrl, n), config_.mem_bw_per_numa));
  }
  if (config_.numa_per_socket > 1) {
    intra_links_.reserve(static_cast<std::size_t>(config_.sockets));
    for (int s = 0; s < config_.sockets; ++s) {
      intra_links_.push_back(
          model_.add_resource(*this, part_key(kMesh, s), config_.intra_socket_bw));
    }
  }
  cross_link_ = model_.add_resource(*this, part_key(kXsocket, 0), config_.cross_socket_bw);
  governor_ = std::make_unique<FrequencyGovernor>(*this);
}

Machine::~Machine() = default;

std::string Machine::resource_name(std::uint32_t key) const {
  static constexpr const char* kParts[] = {"core", "memctrl", "mesh", "xsocket"};
  const std::uint32_t part = key >> 24;
  std::string name = prefix_ + kParts[part];
  if (part != kXsocket) name += std::to_string(key & 0xffffffu);
  return name;
}

std::vector<sim::Resource*> Machine::mem_path(int from_numa, int data_numa) {
  std::vector<sim::Resource*> path;
  path.push_back(mem_ctrl(data_numa));
  if (from_numa == data_numa) return path;
  if (config_.socket_of_numa(from_numa) == config_.socket_of_numa(data_numa)) {
    if (sim::Resource* mesh = intra_link(config_.socket_of_numa(from_numa))) path.push_back(mesh);
  } else {
    path.push_back(cross_link_);
  }
  return path;
}

double Machine::inflation(const sim::Resource* r) const {
  double p = std::min(r->pressure(), config_.queueing_pressure_clamp);
  return 1.0 + config_.queueing_kappa * p * p;
}

double Machine::uncore_latency_scale(int socket) const {
  double span = config_.uncore_freq_max_hz - config_.uncore_freq_min_hz;
  double u = governor_->uncore_freq(socket);
  double x = span > 0.0 ? (u - config_.uncore_freq_min_hz) / span : 1.0;
  x = std::clamp(x, 0.0, 1.0);
  return 1.0 + config_.uncore_latency_penalty * (1.0 - x);
}

double Machine::mem_access_latency(int from_numa, int data_numa) const {
  const sim::Resource* ctrl = mem_ctrls_.at(static_cast<std::size_t>(data_numa));
  // Controller/mesh queue pressure stretches accesses issued from the same
  // socket (they share the CHA ingress with the contending cores); remote
  // requesters feel contention through the inter-socket link instead.
  const bool same_socket =
      config_.socket_of_numa(from_numa) == config_.socket_of_numa(data_numa);
  double t = config_.mem_latency * (same_socket ? inflation(ctrl) : 1.0) *
             uncore_latency_scale(config_.socket_of_numa(data_numa));
  if (from_numa == data_numa) return t;
  if (same_socket) {
    // SNC hop: small constant, inflated by mesh pressure.
    const sim::Resource* mesh =
        intra_links_.at(static_cast<std::size_t>(config_.socket_of_numa(from_numa)));
    t += 0.25 * config_.cross_socket_latency * inflation(mesh);
  } else {
    t += config_.cross_socket_latency * inflation(cross_link_);
  }
  return t;
}

double Machine::cross_socket_hop_latency() const {
  return config_.cross_socket_latency * inflation(cross_link_);
}

}  // namespace cci::hw
