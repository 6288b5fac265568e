// Analytical baselines for memory-bandwidth sharing between computation
// and communication.
//
// Two closed-form comparators for the discrete-event simulator, in the
// spirit of Langguth, Cai & Sourouri, "Memory Bandwidth Contention:
// Communication vs Computation Tradeoffs in Supercomputers with Multicore
// Architectures" (ICPADS 2018) — reference [12] of the reproduced paper:
//
//  * `predict_max_min`     — static weighted bottleneck max-min over the
//    same resource graph the simulator uses, evaluated once at steady
//    state (no protocol dynamics, no latency effects);
//  * `predict_proportional` — proportional sharing: when a controller is
//    oversubscribed, every contender gets capacity * demand_i / Σdemand,
//    the model [12] effectively assumes.
//
// Comparing these against the simulator (`cci_bench ablation_sharing_models`)
// quantifies what the dynamic simulation adds over static models.
#pragma once

#include "hw/machine_config.hpp"
#include "hw/workload.hpp"
#include "net/network_params.hpp"

namespace cci::model {

struct ContentionInputs {
  hw::MachineConfig machine = hw::MachineConfig::henri();
  net::NetworkParams network = net::NetworkParams::ib_edr();
  int computing_cores = 0;
  /// Kernel run by every computing core.
  hw::KernelTraits kernel{"stream-triad", 2.0, 24.0, hw::VectorClass::kSse};
  /// NUMA node holding all data (computation and transfers).
  int data_numa = 0;
};

struct ContentionPrediction {
  double network_bw = 0.0;   ///< steady-state DMA bandwidth (B/s)
  double per_core_bw = 0.0;  ///< per-core compute memory bandwidth (B/s)
};

/// Static weighted bottleneck max-min (the simulator's allocation math,
/// without any dynamics).
ContentionPrediction predict_max_min(const ContentionInputs& in);

/// Proportional (demand-weighted) sharing on each saturated resource.
ContentionPrediction predict_proportional(const ContentionInputs& in);

}  // namespace cci::model
