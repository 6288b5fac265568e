// DVFS model: per-core frequency driven by load, licence class and policy.
//
// Responsibilities:
//  * core frequencies: ondemand (idle cores drop to min), performance
//    (idle cores hold nominal), userspace (operator-pinned, as with the
//    cpupower tool in the paper);
//  * turbo: busy cores clock to the turbo table entry for their socket's
//    active-core count and their instruction licence (AVX512 down-clocking);
//  * the communication core: its poll duty-cycle keeps it at a stable
//    frequency (paper §3.2/3.3), modelled as a dedicated pin;
//  * uncore: per-socket, ondemand (max when any core busy) or fixed; scales
//    the socket's memory-controller capacities (Likwid-style control).
//
// Every change is pushed into the FlowModel as a capacity update and
// reported to an optional trace sink (Fig. 2/3 frequency timelines).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hw/machine_config.hpp"
#include "obs/metrics.hpp"

namespace cci::hw {

class Machine;

enum class CpuPolicy { kOndemand, kPerformance, kUserspace };

class FrequencyGovernor {
 public:
  explicit FrequencyGovernor(Machine& machine);

  // ---- operator controls (BIOS / cpupower / Likwid equivalents) ----------
  void set_policy(CpuPolicy policy);
  void set_turbo_enabled(bool enabled);
  /// Pin all cores (userspace policy) to `hz`.
  void pin_core_freq(double hz);
  /// Pin the uncore of both sockets to `hz`; pass <= 0 to restore ondemand.
  void pin_uncore_freq(double hz);

  // ---- runtime notifications ---------------------------------------------
  /// A kernel with licence `vc` started executing on `core`.
  void core_busy(int core, VectorClass vc);
  /// The kernel on `core` finished; core returns to idle.
  void core_idle(int core);
  /// `core` runs a communication progress thread (stable duty cycle).
  void core_comm(int core);

  // ---- observations -------------------------------------------------------
  /// Active policy, as `cpupower frequency-info` would report it.  Fault
  /// injection saves this before throttling so recovery can restore the
  /// operator's configuration instead of assuming ondemand.
  [[nodiscard]] CpuPolicy policy() const { return policy_; }
  /// Operator-pinned core frequency (meaningful under kUserspace).
  [[nodiscard]] double pinned_core_freq() const { return pinned_core_hz_; }
  [[nodiscard]] double core_freq(int core) const {
    return freq_.at(static_cast<std::size_t>(core));
  }
  [[nodiscard]] double uncore_freq(int socket) const {
    return uncore_freq_.at(static_cast<std::size_t>(socket));
  }
  [[nodiscard]] int active_cores(int socket) const;

  /// Called as (core, new_freq_hz) at every core transition; (-1 - socket,
  /// hz) encodes uncore changes.  Timestamping is up to the sink.
  using TraceFn = std::function<void(int core, double freq_hz)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

 private:
  enum class CoreState { kIdle, kBusy, kComm };
  /// The socket's cores, [first, last).
  [[nodiscard]] std::pair<int, int> socket_cores(int socket) const;
  void recompute_socket(int socket);
  void recompute_all();
  void apply_core_freq(int core, double hz);
  void apply_uncore(int socket, double hz);
  /// Resolve every core and uncore gauge of this machine in obs_reg_.
  void bind_obs();
  /// `gauges[idx]->set(hz)`: a single branch while obs_reg_ is off (DVFS
  /// transitions are hot); the first write that finds it on binds all of
  /// the machine's gauges.
  void publish_hz(std::vector<obs::Gauge*>& gauges, std::size_t idx, double hz) {
    if (!obs_reg_->enabled()) return;
    if (obs_core_hz_.empty()) bind_obs();
    gauges[idx]->set(hz);
  }

  Machine& machine_;
  CpuPolicy policy_ = CpuPolicy::kOndemand;
  bool turbo_ = true;
  double pinned_core_hz_ = 0.0;
  double pinned_uncore_hz_ = 0.0;
  std::vector<CoreState> state_;
  std::vector<VectorClass> vclass_;
  std::vector<double> freq_;
  std::vector<double> uncore_freq_;
  std::vector<std::uint64_t> transition_gen_;  ///< per-core DVFS ramp epoch
  // Frequency timelines (`hw.freq.<prefix>core<N>_hz` / `...uncore<S>_hz`):
  // the machine prefix keeps multi-node clusters collision-free.  Updated at
  // the instant a transition *lands*, so the sampler sees the ramp latency.
  // Bound at construction when the registry captured there is enabled,
  // otherwise at the first frequency write that finds it on (both vectors
  // stay empty until then).
  obs::Registry* obs_reg_;
  std::vector<obs::Gauge*> obs_core_hz_;
  std::vector<obs::Gauge*> obs_uncore_hz_;
  TraceFn trace_;
};

}  // namespace cci::hw
