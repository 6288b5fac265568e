#include "net/faults.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cci::net {

// ---- FaultState ------------------------------------------------------------

FaultState::FaultState() {
  obs::Registry& reg = obs::Registry::global();
  obs_lost_ = &reg.counter("net.messages_lost");
  obs_corrupted_ = &reg.counter("net.messages_corrupted");
}

void FaultState::pop_loss(double p) {
  for (auto it = loss_.begin(); it != loss_.end(); ++it)
    if (*it == p) {
      loss_.erase(it);
      return;
    }
}

void FaultState::pop_corrupt(double p) {
  for (auto it = corrupt_.begin(); it != corrupt_.end(); ++it)
    if (*it == p) {
      corrupt_.erase(it);
      return;
    }
}

double FaultState::combined(const std::vector<double>& ps) {
  double survive = 1.0;
  for (double p : ps) survive *= 1.0 - p;
  return 1.0 - survive;
}

bool FaultState::draw_loss(sim::Rng& rng) {
  const double p = loss_prob();
  if (p <= 0.0) return false;
  if (rng.uniform() >= p) return false;
  obs_lost_->add(1);
  return true;
}

bool FaultState::draw_corrupt(sim::Rng& rng) {
  const double p = corrupt_prob();
  if (p <= 0.0) return false;
  if (rng.uniform() >= p) return false;
  obs_corrupted_->add(1);
  return true;
}

void FaultState::begin_blackout(int node) {
  const bool onset = ++blackout_depth_[node] == 1;
  if (!onset) return;
  for (const auto& fn : blackout_subs_) fn(node);
}

void FaultState::end_blackout(int node) {
  auto it = blackout_depth_.find(node);
  if (it == blackout_depth_.end() || it->second == 0) return;
  --it->second;
}

bool FaultState::blacked_out(int node) const {
  auto it = blackout_depth_.find(node);
  return it != blackout_depth_.end() && it->second > 0;
}

// ---- FaultPlan -------------------------------------------------------------

namespace {

const char* kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kWireDegrade: return "wire-degrade";
    case FaultEvent::Kind::kMemCtrlDegrade: return "memctrl-degrade";
    case FaultEvent::Kind::kNicDegrade: return "nic-degrade";
    case FaultEvent::Kind::kNicBlackout: return "nic-blackout";
    case FaultEvent::Kind::kNodeThrottle: return "node-throttle";
    case FaultEvent::Kind::kLossWindow: return "loss-window";
    case FaultEvent::Kind::kCorruptWindow: return "corrupt-window";
  }
  return "?";
}

bool kind_from_name(const std::string& name, FaultEvent::Kind& out) {
  using Kind = FaultEvent::Kind;
  for (Kind k : {Kind::kWireDegrade, Kind::kMemCtrlDegrade, Kind::kNicDegrade,
                 Kind::kNicBlackout, Kind::kNodeThrottle, Kind::kLossWindow,
                 Kind::kCorruptWindow})
    if (name == kind_name(k)) {
      out = k;
      return true;
    }
  return false;
}

/// Kinds whose `value` is a capacity factor or a probability.  Blackouts
/// and throttles record 1.0 and never read it.
bool reads_value(FaultEvent::Kind kind) {
  return kind != FaultEvent::Kind::kNicBlackout && kind != FaultEvent::Kind::kNodeThrottle;
}

/// Why the injector cannot apply `e`, or nullptr when it can.  A negative
/// capacity or an out-of-range probability would otherwise reach
/// Resource::set_capacity / FaultState, whose only guards are asserts.
const char* invalid_reason(const FaultEvent& e) {
  if (!std::isfinite(e.at) || !std::isfinite(e.until) || !std::isfinite(e.value))
    return "at, until and value must be finite";
  if (e.at < 0.0) return "at must be >= 0";
  if (e.until >= 0.0 && e.until < e.at) return "until must be >= at (or < 0 for no recovery)";
  if (reads_value(e.kind) && !(e.value >= 0.0 && e.value <= 1.0))
    return "value must be in [0, 1]";
  return nullptr;
}

void check_injectable(const FaultEvent& e) {
  if (const char* why = invalid_reason(e))
    throw std::invalid_argument("FaultInjector: " + std::string(kind_name(e.kind)) + ": " +
                                why);
}

}  // namespace

std::string FaultPlan::serialize() const {
  std::string out;
  char line[256];
  for (const FaultEvent& e : events_) {
    std::snprintf(line, sizeof(line), "%s at=%.17g until=%.17g node=%d numa=%d value=%.17g\n",
                  kind_name(e.kind), e.at, e.until, e.node, e.numa, e.value);
    out += line;
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    char kind_buf[64];
    FaultEvent e;
    int consumed = -1;
    if (std::sscanf(line.c_str(), "%63s at=%lg until=%lg node=%d numa=%d value=%lg %n",
                    kind_buf, &e.at, &e.until, &e.node, &e.numa, &e.value, &consumed) != 6 ||
        static_cast<std::size_t>(consumed) != line.size() || !kind_from_name(kind_buf, e.kind))
      throw std::runtime_error("FaultPlan::parse: malformed line: " + line);
    if (const char* why = invalid_reason(e))
      throw std::runtime_error("FaultPlan::parse: " + std::string(why) + ": " + line);
    plan.add(e);
  }
  return plan;
}

// ---- schedule generation ---------------------------------------------------

namespace {

double draw_interarrival(const FaultScheduleConfig& cfg, sim::Rng& rng) {
  double u = rng.uniform();
  if (u < 1e-12) u = 1e-12;
  if (cfg.interarrival == FaultScheduleConfig::Dist::kExponential)
    return -cfg.mean_interarrival * std::log(1.0 - u);
  // Weibull with the requested mean: scale = mean / Gamma(1 + 1/shape).
  const double scale = cfg.mean_interarrival / std::tgamma(1.0 + 1.0 / cfg.weibull_shape);
  return scale * std::pow(-std::log(1.0 - u), 1.0 / cfg.weibull_shape);
}

}  // namespace

FaultPlan generate_fault_plan(const FaultScheduleConfig& cfg) {
  FaultPlan plan;
  sim::Rng rng(cfg.seed);
  const double weights[] = {cfg.w_wire_degrade, cfg.w_nic_degrade, cfg.w_nic_blackout,
                            cfg.w_node_throttle, cfg.w_loss_window, cfg.w_corrupt_window};
  const FaultEvent::Kind kinds[] = {
      FaultEvent::Kind::kWireDegrade,  FaultEvent::Kind::kNicDegrade,
      FaultEvent::Kind::kNicBlackout,  FaultEvent::Kind::kNodeThrottle,
      FaultEvent::Kind::kLossWindow,   FaultEvent::Kind::kCorruptWindow};
  double total_w = 0.0;
  for (double w : weights) total_w += w;
  if (total_w <= 0.0) return plan;

  sim::Time t = 0.0;
  while (true) {
    t += draw_interarrival(cfg, rng);
    if (t >= cfg.horizon) break;
    double pick = rng.uniform() * total_w;
    std::size_t k = 0;
    for (; k + 1 < std::size(weights); ++k) {
      if (pick < weights[k]) break;
      pick -= weights[k];
    }
    FaultEvent e;
    e.kind = kinds[k];
    e.at = t;
    e.until = t + rng.uniform(cfg.duration_min, cfg.duration_max);
    switch (e.kind) {
      case FaultEvent::Kind::kWireDegrade:
        e.value = rng.uniform(cfg.factor_min, cfg.factor_max);
        break;
      case FaultEvent::Kind::kNicDegrade:
        e.node = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.nodes)));
        e.value = rng.uniform(cfg.factor_min, cfg.factor_max);
        break;
      case FaultEvent::Kind::kNicBlackout:
      case FaultEvent::Kind::kNodeThrottle:
        e.node = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.nodes)));
        break;
      case FaultEvent::Kind::kLossWindow:
        e.value = rng.uniform(cfg.loss_prob_min, cfg.loss_prob_max);
        break;
      case FaultEvent::Kind::kCorruptWindow:
        e.value = rng.uniform(cfg.corrupt_prob_min, cfg.corrupt_prob_max);
        break;
      case FaultEvent::Kind::kMemCtrlDegrade:
        break;  // not generated stochastically (needs a numa pick policy)
    }
    plan.add(e);
  }
  return plan;
}

// ---- FaultInjector ---------------------------------------------------------

void FaultInjector::record(const FaultEvent& e) {
  check_injectable(e);
  plan_.add(e);
}

void FaultInjector::schedule(sim::Resource* r, sim::Time at, double factor,
                             sim::Time recover_at) {
  // Delta tracking: remember how much capacity this fault removed and give
  // exactly that back.  `capacity / factor` restores double-count when a
  // second fault or an absolute capacity write lands inside the window.
  double* delta = &capacity_deltas_.emplace_back(0.0);
  cluster_.engine().call_at(at, [r, factor, delta] {
    *delta = r->capacity() * (1.0 - factor);
    r->set_capacity(r->capacity() - *delta);
  });
  if (recover_at >= 0.0)
    cluster_.engine().call_at(recover_at,
                              [r, delta] { r->set_capacity(r->capacity() + *delta); });
}

void FaultInjector::degrade_wire(sim::Time at, double factor, sim::Time recover_at) {
  record({FaultEvent::Kind::kWireDegrade, at, recover_at, -1, 0, factor});
  // Fabric-wide degradation: every crossbar and inter-switch link.  On the
  // single-switch topology this is exactly the one historical crossbar.
  for (sim::Resource* r : cluster_.fabric().switch_resources())
    schedule(r, at, factor, recover_at);
}

void FaultInjector::degrade_mem_ctrl(int node, int numa, sim::Time at, double factor,
                                     sim::Time recover_at) {
  record({FaultEvent::Kind::kMemCtrlDegrade, at, recover_at, node, numa, factor});
  schedule(cluster_.machine(node).mem_ctrl(numa), at, factor, recover_at);
}

void FaultInjector::degrade_nic(int node, sim::Time at, double factor, sim::Time recover_at) {
  record({FaultEvent::Kind::kNicDegrade, at, recover_at, node, 0, factor});
  cluster_.engine().call_at(
      at, [this, node, factor] { cluster_.nic(node).set_degradation(factor); });
  if (recover_at >= 0.0)
    cluster_.engine().call_at(recover_at,
                              [this, node] { cluster_.nic(node).set_degradation(1.0); });
}

void FaultInjector::throttle_node(int node, sim::Time at, sim::Time recover_at) {
  record({FaultEvent::Kind::kNodeThrottle, at, recover_at, node, 0, 1.0});
  cluster_.engine().call_at(at, [this, node] {
    auto& m = cluster_.machine(node);
    SavedClocks& saved = saved_clocks_[node];
    if (!saved.throttled) {  // nested throttles keep the original save
      saved.policy = m.governor().policy();
      saved.pinned_hz = m.governor().pinned_core_freq();
      saved.throttled = true;
    }
    m.governor().pin_core_freq(m.config().core_freq_min_hz);
  });
  if (recover_at >= 0.0) restore_clocks(node, recover_at);
}

void FaultInjector::restore_clocks(int node, sim::Time at) {
  if (!std::isfinite(at) || at < 0.0)
    throw std::invalid_argument("FaultInjector: restore_clocks: at must be finite and >= 0");
  cluster_.engine().call_at(at, [this, node] {
    auto& gov = cluster_.machine(node).governor();
    auto it = saved_clocks_.find(node);
    if (it == saved_clocks_.end() || !it->second.throttled) {
      gov.set_policy(hw::CpuPolicy::kOndemand);  // no save: legacy fallback
      return;
    }
    if (it->second.policy == hw::CpuPolicy::kUserspace)
      gov.pin_core_freq(it->second.pinned_hz);
    else
      gov.set_policy(it->second.policy);
    it->second.throttled = false;
  });
}

void FaultInjector::loss_window(double p, sim::Time at, sim::Time until) {
  record({FaultEvent::Kind::kLossWindow, at, until, -1, 0, p});
  cluster_.faults().arm();
  cluster_.engine().call_at(at, [this, p] { cluster_.faults().push_loss(p); });
  if (until >= 0.0)
    cluster_.engine().call_at(until, [this, p] { cluster_.faults().pop_loss(p); });
}

void FaultInjector::corrupt_window(double p, sim::Time at, sim::Time until) {
  record({FaultEvent::Kind::kCorruptWindow, at, until, -1, 0, p});
  cluster_.faults().arm();
  cluster_.engine().call_at(at, [this, p] { cluster_.faults().push_corrupt(p); });
  if (until >= 0.0)
    cluster_.engine().call_at(until, [this, p] { cluster_.faults().pop_corrupt(p); });
}

void FaultInjector::blackout_nic(int node, sim::Time at, sim::Time until) {
  record({FaultEvent::Kind::kNicBlackout, at, until, node, 0, 1.0});
  cluster_.faults().arm();
  cluster_.engine().call_at(at, [this, node] { cluster_.faults().begin_blackout(node); });
  if (until >= 0.0)
    cluster_.engine().call_at(until, [this, node] { cluster_.faults().end_blackout(node); });
}

void FaultInjector::apply(const FaultPlan& plan) {
  // Check every event first (blackouts and throttles never reach an entry
  // point with their value), so a bad plan schedules nothing at all.
  for (const FaultEvent& e : plan.events()) check_injectable(e);
  for (const FaultEvent& e : plan.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kWireDegrade:
        degrade_wire(e.at, e.value, e.until);
        break;
      case FaultEvent::Kind::kMemCtrlDegrade:
        degrade_mem_ctrl(e.node, e.numa, e.at, e.value, e.until);
        break;
      case FaultEvent::Kind::kNicDegrade:
        degrade_nic(e.node, e.at, e.value, e.until);
        break;
      case FaultEvent::Kind::kNicBlackout:
        blackout_nic(e.node, e.at, e.until);
        break;
      case FaultEvent::Kind::kNodeThrottle:
        throttle_node(e.node, e.at, e.until);
        break;
      case FaultEvent::Kind::kLossWindow:
        loss_window(e.value, e.at, e.until);
        break;
      case FaultEvent::Kind::kCorruptWindow:
        corrupt_window(e.value, e.at, e.until);
        break;
    }
  }
}

}  // namespace cci::net
