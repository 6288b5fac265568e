// NIC model: DMA engine resource, registration cache, NUMA attachment.
// The DMA engine resource is named `<machine prefix>nic-dma`, formatted on
// demand (sim::ResourceNamer).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "hw/machine.hpp"
#include "net/network_params.hpp"

namespace cci::net {

class Nic : private sim::ResourceNamer {
 public:
  Nic(hw::Machine& machine, const NetworkParams& params)
      : machine_(machine),
        params_(params),
        dma_engine_(machine.model().add_resource(*this, 0, params.dma_bw_max_uncore)),
        obs_reg_(&obs::Registry::global()) {
    if (obs_reg_->enabled()) bind_obs();
  }

  hw::Machine& machine() { return machine_; }
  const NetworkParams& params() const { return params_; }
  /// NUMA node the NIC's PCIe root complex hangs off.
  [[nodiscard]] int numa() const { return machine_.config().nic_numa; }
  [[nodiscard]] int socket() const { return machine_.config().socket_of_numa(numa()); }

  /// The PCIe/uncore-limited DMA path; shared by all transfers of this NIC.
  sim::Resource* dma_engine() { return dma_engine_; }

  /// Transfer bracketing for the `net.<prefix>nic-dma.queue_depth` gauge:
  /// number of copies/DMAs concurrently in flight on this engine, sampled
  /// into per-resource timelines by the obs::Sampler.
  void dma_begin() { publish_queue_depth(++dma_inflight_); }
  void dma_end() { publish_queue_depth(--dma_inflight_); }

  /// Re-derive DMA capacity from the current uncore frequency of the NIC's
  /// socket.  Called lazily at transfer start: uncore settings change only
  /// between experiment phases.
  void refresh_dma_capacity();

  /// Health factor multiplied into the DMA capacity (fault injection:
  /// PCIe retraining, firmware throttling).  1.0 = healthy.
  void set_degradation(double factor) {
    degradation_ = factor;
    refresh_dma_capacity();
  }
  [[nodiscard]] double degradation() const { return degradation_; }

  /// Registration cache (pin-down cache [20] in the paper): first use of a
  /// buffer pays the pinning cost, recycled buffers do not.
  [[nodiscard]] bool registered(std::uint64_t buffer_id) const {
    return reg_cache_.contains(buffer_id);
  }
  void register_buffer(std::uint64_t buffer_id) { reg_cache_.insert(buffer_id); }
  [[nodiscard]] double registration_cost(std::size_t bytes) const {
    return params_.registration_base +
           params_.registration_per_byte * static_cast<double>(bytes);
  }

 private:
  /// Resolve the queue-depth gauge in obs_reg_.  It is named after the DMA
  /// resource, so binding late needs no stored prefix.
  void bind_obs();
  /// Bound at construction when the registry captured there is enabled,
  /// otherwise at the first transfer that finds it on.
  void publish_queue_depth(int depth) {
    if (!obs_reg_->enabled()) return;
    if (obs_queue_depth_ == nullptr) bind_obs();
    obs_queue_depth_->set(static_cast<double>(depth));
  }

  [[nodiscard]] std::string resource_name(std::uint32_t) const override {
    return machine_.prefix() + "nic-dma";
  }

  hw::Machine& machine_;
  NetworkParams params_;
  sim::Resource* dma_engine_;
  obs::Registry* obs_reg_;
  obs::Gauge* obs_queue_depth_ = nullptr;
  int dma_inflight_ = 0;
  double degradation_ = 1.0;
  std::unordered_set<std::uint64_t> reg_cache_;
};

}  // namespace cci::net
