// Fault model: planned degradations, lossy/corrupting wire windows, NIC
// blackouts, and reproducible stochastic fault schedules.
//
// Real clusters see link flaps, switch congestion from other jobs, PCIe
// retraining, thermally throttled sockets, and plain packet loss.  Three
// pieces model them:
//
//  * FaultState — the live wire-unreliability state the transport consults
//    per message (loss/corruption probabilities from stacked windows,
//    per-node NIC blackouts).  Owned by the Cluster; inert until armed, so
//    healthy runs take the transport's fire-and-forget form.
//  * FaultPlan — an ordered record of every injected fault event, with a
//    line-oriented text serialization.  A plan generated from a seed, a
//    plan parsed from text, and the plan an injector records while applying
//    either all compare equal — deterministic replay is an equality check.
//  * FaultInjector — schedules fault events on a cluster's engine.
//    Capacity faults track the *applied delta* per fault (not a restore
//    factor), so overlapping faults and absolute capacity writes from other
//    subsystems (uncore refresh) restore correctly; clock throttles save
//    the prior governor policy and pinned frequency and restore those.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/frequency_governor.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace cci::net {

// ---- live wire-unreliability state ----------------------------------------

/// Consulted by the transport on every message attempt.  Loss/corruption
/// windows stack: the effective probability is 1 - prod(1 - p_i).  NIC
/// blackouts nest per node.  `wire_active()` flips permanently the moment
/// any wire-unreliability fault is *scheduled* (not when its window opens),
/// so one run uses one protocol throughout — keeping the healthy path
/// bitwise-identical to a build without the fault subsystem.
class FaultState {
 public:
  FaultState();

  /// Retransmit policy for the reliable transport (mini-MPI reads these).
  struct ReliabilityParams {
    int max_retries = 8;       ///< attempts beyond the first before giving up
    double rto_safety = 3.0;   ///< initial RTO = safety x LogGP round trip
    double rto_max = 0.05;     ///< exponential-backoff cap (s)
  };
  ReliabilityParams reliability;

  /// Arm the reliable transport without any fault (overhead measurements).
  void force_reliable(bool on) { forced_ = on; }
  [[nodiscard]] bool wire_active() const { return armed_ || forced_; }
  /// Called by the injector when any wire-unreliability fault is scheduled.
  void arm() { armed_ = true; }

  // ---- loss / corruption windows (stacked) --------------------------------
  void push_loss(double p) { loss_.push_back(p); }
  void pop_loss(double p);
  void push_corrupt(double p) { corrupt_.push_back(p); }
  void pop_corrupt(double p);
  [[nodiscard]] double loss_prob() const { return combined(loss_); }
  [[nodiscard]] double corrupt_prob() const { return combined(corrupt_); }

  /// Per-attempt fate draws.  Consume RNG only while a window is open, so a
  /// reliable-but-quiet phase leaves the jitter stream untouched.  Draws
  /// that come up true bump net.messages_lost / net.messages_corrupted.
  bool draw_loss(sim::Rng& rng);
  bool draw_corrupt(sim::Rng& rng);

  // ---- NIC blackouts -------------------------------------------------------
  void begin_blackout(int node);
  void end_blackout(int node);
  [[nodiscard]] bool blacked_out(int node) const;
  /// Subscribe to blackout onsets (the transport cancels in-flight DMA
  /// flows through this).  Subscribers must outlive the simulation run.
  void on_blackout(std::function<void(int node)> fn) {
    blackout_subs_.push_back(std::move(fn));
  }

 private:
  [[nodiscard]] static double combined(const std::vector<double>& ps);

  std::vector<double> loss_;
  std::vector<double> corrupt_;
  std::map<int, int> blackout_depth_;
  std::vector<std::function<void(int)>> blackout_subs_;
  bool armed_ = false;
  bool forced_ = false;
  obs::Counter* obs_lost_ = nullptr;
  obs::Counter* obs_corrupted_ = nullptr;
};

// ---- fault plans -----------------------------------------------------------

/// One injected fault.  `until < 0` means no scheduled recovery.
struct FaultEvent {
  enum class Kind {
    kWireDegrade,     ///< crossbar capacity x value over [at, until]
    kMemCtrlDegrade,  ///< node/numa memory controller x value
    kNicDegrade,      ///< node NIC health factor = value
    kNicBlackout,     ///< node NIC passes no traffic over [at, until]
    kNodeThrottle,    ///< node cores pinned to minimum frequency
    kLossWindow,      ///< wire drops each message with prob. value
    kCorruptWindow,   ///< wire corrupts each message with prob. value
  };
  Kind kind = Kind::kWireDegrade;
  sim::Time at = 0.0;
  sim::Time until = -1.0;
  int node = -1;  ///< -1 for cluster-wide events (wire, loss, corruption)
  int numa = 0;   ///< kMemCtrlDegrade only
  double value = 1.0;  ///< capacity factor or probability, per kind

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Ordered record of injected events, with a text round trip for replay.
class FaultPlan {
 public:
  void add(const FaultEvent& event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// One line per event; doubles printed with %.17g so parse(serialize())
  /// reproduces the plan bit-for-bit.
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws std::runtime_error naming the line on
  /// malformed input and on events the injector cannot apply: non-finite
  /// at/until/value, at < 0, 0 <= until < at, or (for kinds that read
  /// `value`) a capacity factor or probability outside [0, 1].
  static FaultPlan parse(const std::string& text);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

/// Seeded stochastic fault schedules: inter-arrival times drawn from an
/// exponential (memoryless link flaps) or Weibull (wear-out / bursty,
/// shape != 1) distribution, event kinds from a weighted mix.  Same config
/// -> same plan, always.
struct FaultScheduleConfig {
  std::uint64_t seed = 42;
  sim::Time horizon = 1.0;  ///< generate events with at < horizon

  enum class Dist { kExponential, kWeibull };
  Dist interarrival = Dist::kExponential;
  double mean_interarrival = 0.05;  ///< s between fault onsets
  double weibull_shape = 1.5;       ///< <1 bursty, >1 wear-out clustering

  int nodes = 2;

  /// Mix weights; 0 disables a kind.
  double w_wire_degrade = 1.0;
  double w_nic_degrade = 1.0;
  double w_nic_blackout = 0.5;
  double w_node_throttle = 0.5;
  double w_loss_window = 1.0;
  double w_corrupt_window = 0.5;

  double duration_min = 0.005, duration_max = 0.05;        ///< window length (s)
  double factor_min = 0.1, factor_max = 0.8;               ///< capacity factors
  double loss_prob_min = 0.01, loss_prob_max = 0.3;
  double corrupt_prob_min = 0.01, corrupt_prob_max = 0.1;
};

FaultPlan generate_fault_plan(const FaultScheduleConfig& config);

// ---- injector --------------------------------------------------------------

/// Schedules fault events on the cluster's engine and records everything it
/// injects into a FaultPlan.  The injector must outlive the simulation run
/// (scheduled callbacks reference it).  Every entry point applies the
/// FaultPlan::parse checks to its arguments and throws
/// std::invalid_argument, scheduling nothing, when they fail.
class FaultInjector {
 public:
  explicit FaultInjector(Cluster& cluster) : cluster_(cluster) {}

  // ---- capacity faults (delta-tracked restore) ----------------------------
  /// Scale the wire capacity by `factor` at time `at`; restore at
  /// `recover_at` (skip restore if negative).
  void degrade_wire(sim::Time at, double factor, sim::Time recover_at = -1.0);
  /// Degrade one node's NUMA memory controller (e.g. faulty DIMM channel).
  void degrade_mem_ctrl(int node, int numa, sim::Time at, double factor,
                        sim::Time recover_at = -1.0);
  /// Degrade a node's NIC DMA engine (PCIe link retraining to a lower
  /// width, a classic production fault).  Goes through the NIC's health
  /// factor so the lazy uncore refresh cannot silently undo the fault.
  void degrade_nic(int node, sim::Time at, double factor, sim::Time recover_at = -1.0);

  // ---- clock faults (policy-saving restore) -------------------------------
  /// Thermal throttle: pin every core of `node` to the machine's minimum
  /// frequency at `at`.  The governor policy active just before the
  /// throttle is saved; restore_clocks (or `recover_at`) reinstates it.
  void throttle_node(int node, sim::Time at, sim::Time recover_at = -1.0);
  void restore_clocks(int node, sim::Time at);

  // ---- wire unreliability --------------------------------------------------
  /// Drop each message with probability `p` over [at, until] (until < 0 =
  /// forever).  Arms the reliable transport immediately.
  void loss_window(double p, sim::Time at, sim::Time until = -1.0);
  /// Corrupt each message with probability `p` (detected by the receiver's
  /// CRC check and retransmitted).
  void corrupt_window(double p, sim::Time at, sim::Time until = -1.0);
  /// NIC passes no traffic over [at, until]; in-flight DMA flows touching
  /// the node are cancelled at onset.
  void blackout_nic(int node, sim::Time at, sim::Time until = -1.0);

  // ---- plans ---------------------------------------------------------------
  /// Inject every event of a plan (generated or parsed).  The injector's
  /// own plan() records them again, so replays compare equal to the input.
  /// Throws std::invalid_argument before scheduling anything when any
  /// event fails the FaultPlan::parse checks.
  void apply(const FaultPlan& plan);
  /// Everything this injector has scheduled, in scheduling order.
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  /// Capacity degradation with delta-tracked restore: the injection
  /// captures the capacity it removed, recovery adds exactly that back —
  /// correct under overlapping faults and absolute capacity writes from
  /// other subsystems, where a `capacity / factor` restore double-counts.
  void schedule(sim::Resource* r, sim::Time at, double factor, sim::Time recover_at);
  /// Validate `e` (std::invalid_argument) and append it to plan_.
  void record(const FaultEvent& e);

  Cluster& cluster_;
  FaultPlan plan_;
  struct SavedClocks {
    bool throttled = false;
    hw::CpuPolicy policy = hw::CpuPolicy::kOndemand;
    double pinned_hz = 0.0;
  };
  std::map<int, SavedClocks> saved_clocks_;
  /// Removed-capacity records for delta-tracked restores.  A deque keeps
  /// element addresses stable, so the onset/recovery events capture a raw
  /// pointer instead of a shared_ptr control block per fault.  The injector
  /// already must outlive its scheduled events (they capture `this` in the
  /// NIC/clock paths), so the storage lives exactly long enough.
  std::deque<double> capacity_deltas_;
};

}  // namespace cci::net
