#include "hw/frequency_governor.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "hw/machine.hpp"

namespace cci::hw {

FrequencyGovernor::FrequencyGovernor(Machine& machine)
    : machine_(machine),
      state_(static_cast<std::size_t>(machine.config().total_cores()), CoreState::kIdle),
      vclass_(static_cast<std::size_t>(machine.config().total_cores()), VectorClass::kScalar),
      freq_(static_cast<std::size_t>(machine.config().total_cores()), 0.0),
      uncore_freq_(static_cast<std::size_t>(machine.config().sockets), 0.0),
      transition_gen_(static_cast<std::size_t>(machine.config().total_cores()), 0),
      obs_reg_(&obs::Registry::global()) {
  if (obs_reg_->enabled()) bind_obs();
  recompute_all();
}

void FrequencyGovernor::bind_obs() {
  char buf[128];
  obs_core_hz_.reserve(freq_.size());
  for (int c = 0; c < machine_.config().total_cores(); ++c) {
    std::snprintf(buf, sizeof buf, "hw.freq.%score%d_hz", machine_.prefix().c_str(), c);
    obs_core_hz_.push_back(&obs_reg_->gauge(buf));
  }
  obs_uncore_hz_.reserve(uncore_freq_.size());
  for (int s = 0; s < machine_.config().sockets; ++s) {
    std::snprintf(buf, sizeof buf, "hw.freq.%suncore%d_hz", machine_.prefix().c_str(), s);
    obs_uncore_hz_.push_back(&obs_reg_->gauge(buf));
  }
}

void FrequencyGovernor::set_policy(CpuPolicy policy) {
  policy_ = policy;
  recompute_all();
}

void FrequencyGovernor::set_turbo_enabled(bool enabled) {
  turbo_ = enabled;
  recompute_all();
}

void FrequencyGovernor::pin_core_freq(double hz) {
  policy_ = CpuPolicy::kUserspace;
  pinned_core_hz_ = hz;
  recompute_all();
}

void FrequencyGovernor::pin_uncore_freq(double hz) {
  pinned_uncore_hz_ = hz;
  recompute_all();
}

void FrequencyGovernor::core_busy(int core, VectorClass vc) {
  state_.at(static_cast<std::size_t>(core)) = CoreState::kBusy;
  vclass_.at(static_cast<std::size_t>(core)) = vc;
  recompute_socket(machine_.config().socket_of_core(core));
}

void FrequencyGovernor::core_idle(int core) {
  state_.at(static_cast<std::size_t>(core)) = CoreState::kIdle;
  recompute_socket(machine_.config().socket_of_core(core));
}

void FrequencyGovernor::core_comm(int core) {
  state_.at(static_cast<std::size_t>(core)) = CoreState::kComm;
  recompute_socket(machine_.config().socket_of_core(core));
}

int FrequencyGovernor::active_cores(int socket) const {
  const auto [first, last] = socket_cores(socket);
  int count = 0;
  for (int c = first; c < last; ++c)
    if (state_[static_cast<std::size_t>(c)] != CoreState::kIdle) ++count;
  return count;
}

std::pair<int, int> FrequencyGovernor::socket_cores(int socket) const {
  // Cores are numbered NUMA-major and NUMA nodes socket-major, so a
  // socket's cores are one contiguous range.
  const auto& cfg = machine_.config();
  const int per_socket = cfg.numa_per_socket * cfg.cores_per_numa;
  return {socket * per_socket, (socket + 1) * per_socket};
}

void FrequencyGovernor::recompute_all() {
  for (int s = 0; s < machine_.config().sockets; ++s) recompute_socket(s);
}

void FrequencyGovernor::recompute_socket(int socket) {
  const auto& cfg = machine_.config();
  const int active = active_cores(socket);
  const auto [first, last] = socket_cores(socket);

  for (int c = first; c < last; ++c) {
    const auto idx = static_cast<std::size_t>(c);
    double hz;
    if (policy_ == CpuPolicy::kUserspace) {
      hz = pinned_core_hz_ > 0.0 ? pinned_core_hz_ : cfg.core_freq_nominal_hz;
    } else {
      switch (state_[idx]) {
        case CoreState::kIdle:
          hz = policy_ == CpuPolicy::kPerformance ? cfg.core_freq_nominal_hz
                                                  : cfg.core_freq_min_hz;
          break;
        case CoreState::kComm:
          // Poll duty cycle holds the comm core at a stable mid frequency,
          // never above the socket's current turbo envelope.
          hz = std::min(cfg.comm_core_freq_hz,
                        turbo_ ? cfg.turbo_freq(VectorClass::kScalar, active)
                               : cfg.core_freq_nominal_hz);
          break;
        case CoreState::kBusy:
          hz = turbo_ ? cfg.turbo_freq(vclass_[idx], active)
                      : std::min(cfg.core_freq_nominal_hz,
                                 cfg.turbo_freq(vclass_[idx], active));
          break;
        default:
          hz = cfg.core_freq_nominal_hz;
      }
    }
    apply_core_freq(c, hz);
  }

  // Uncore: pinned, else ondemand on socket activity.
  double uhz = pinned_uncore_hz_ > 0.0
                   ? pinned_uncore_hz_
                   : (active > 0 ? cfg.uncore_freq_max_hz : cfg.uncore_freq_min_hz);
  apply_uncore(socket, uhz);
}

void FrequencyGovernor::apply_core_freq(int core, double hz) {
  auto idx = static_cast<std::size_t>(core);
  if (freq_[idx] == hz) {
    // Re-targeting the current operating point still cancels any ramp in
    // flight (e.g. busy->idle before the turbo transition landed).
    ++transition_gen_[idx];
    return;
  }
  const double ramp = machine_.config().dvfs_transition_latency;
  // Initial assignment (boot) is instantaneous; only runtime transitions ramp.
  if (ramp <= 0.0 || freq_[idx] == 0.0) {
    freq_[idx] = hz;
    machine_.core(core)->set_capacity(hz);
    publish_hz(obs_core_hz_, idx, hz);
    if (trace_) trace_(core, hz);
    return;
  }
  // Voltage/frequency ramp: the new operating point lands after the
  // transition latency; a newer decision supersedes an in-flight one.
  const std::uint64_t gen = ++transition_gen_[idx];
  machine_.engine().call_in(ramp, [this, core, idx, hz, gen] {
    if (transition_gen_[idx] != gen) return;  // superseded
    freq_[idx] = hz;
    machine_.core(core)->set_capacity(hz);
    publish_hz(obs_core_hz_, idx, hz);
    if (trace_) trace_(core, hz);
  });
}

void FrequencyGovernor::apply_uncore(int socket, double hz) {
  auto idx = static_cast<std::size_t>(socket);
  if (uncore_freq_[idx] == hz) return;
  uncore_freq_[idx] = hz;
  publish_hz(obs_uncore_hz_, idx, hz);
  const auto& cfg = machine_.config();
  // Memory-controller capacity scales with uncore frequency.
  double span = cfg.uncore_freq_max_hz - cfg.uncore_freq_min_hz;
  double x = span > 0.0 ? (hz - cfg.uncore_freq_min_hz) / span : 1.0;
  x = std::clamp(x, 0.0, 1.0);
  double scale = cfg.uncore_min_mem_scale + (1.0 - cfg.uncore_min_mem_scale) * x;
  for (int n = 0; n < cfg.numa_count(); ++n) {
    if (cfg.socket_of_numa(n) != socket) continue;
    machine_.mem_ctrl(n)->set_capacity(cfg.mem_bw_per_numa * scale);
  }
  if (trace_) trace_(-1 - socket, hz);
}

}  // namespace cci::hw
