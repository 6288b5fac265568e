// Bottleneck (weighted) max-min fair allocation.
//
// This is the fluid bandwidth-sharing model used throughout the simulator:
// every concurrent transfer/computation is a *flow* with a demand vector
// over shared *resources* (memory controllers, inter-socket links, NIC
// ports, cores).  A flow advancing at rate r consumes r * demand[j] on each
// resource j it touches.  Rates are the classic progressive-filling
// solution: all flows grow at a common weighted scale until a resource (or
// a flow's own rate cap) saturates; saturated flows freeze; repeat.
//
// Two entry points:
//
//  * solve_max_min() — the original pure function over plain structs,
//    trivially property-testable in isolation from the engine.  It is a
//    thin wrapper over the incremental solver below.
//
//  * MaxMinSolver — persistent solver state for the engine's hot path.
//    Flows are registered once and updated in place; resources linked by
//    shared flows are grouped into connected components via a union-find,
//    and a change (flow added/removed, capacity changed) dirty-marks only
//    the touched component.  solve() then re-runs progressive filling on
//    the dirty components only — rates, loads and pressures of untouched
//    components carry over verbatim (bitwise), which is what makes partial
//    re-solves indistinguishable from full ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cci::sim {

struct MaxMinFlow {
  /// Relative weight for sharing; a flow's rate in each filling round is
  /// weight * lambda.  Must be > 0.
  double weight = 1.0;
  /// Intrinsic rate cap (e.g. a single core's copy speed); infinity if none.
  double rate_cap = 0.0;  // <= 0 means "no cap"
  struct Entry {
    std::size_t resource;  ///< index into MaxMinProblem::capacity
    double demand;         ///< resource units consumed per unit of rate
  };
  std::vector<Entry> entries;
};

struct MaxMinProblem {
  std::vector<double> capacity;   ///< per-resource capacity (units/s)
  std::vector<MaxMinFlow> flows;  ///< concurrent flows to allocate
};

struct MaxMinSolution {
  std::vector<double> rate;  ///< per-flow allocated rate
  std::vector<double> load;  ///< per-resource total usage (<= capacity)
};

/// Solve the weighted bottleneck max-min problem by progressive filling.
/// Complexity O(F * R * rounds); rounds <= F.  Flows with empty demand
/// vectors get their rate cap (or +inf with no cap).
MaxMinSolution solve_max_min(const MaxMinProblem& problem);

/// Incremental solver: persistent flow records + connected-component
/// partial re-solves.  Not thread-safe (the engine is single-threaded).
class MaxMinSolver {
 public:
  using FlowId = std::size_t;
  static constexpr FlowId kNoFlow = static_cast<FlowId>(-1);

  // ---- problem mutation (each call dirty-marks the touched component) ----

  /// Register a resource; returns its index.  Indices are dense and stable.
  std::size_t add_resource(double capacity);
  void set_capacity(std::size_t resource, double capacity);

  /// Register a flow.  Slots are recycled, so FlowIds of removed flows may
  /// be reused; relative solve order follows registration order (a
  /// monotonic sequence number), never slot order.
  FlowId add_flow(double weight, double rate_cap,
                  const std::vector<MaxMinFlow::Entry>& entries);
  void remove_flow(FlowId id);

  // ---- solving ----------------------------------------------------------

  /// Re-solve every dirty component.  After the call, changed_flows() lists
  /// flows whose rate differs bitwise from before.  With `list_touched`,
  /// touched_resources() lists the members of solved components (their
  /// load/pressure are freshly written; untouched resources keep their
  /// previous values); without it the list is left empty.
  void solve(bool list_touched = false);

  /// Force the next solve() to re-solve every component (the "from-scratch"
  /// reference path used for A/B determinism checks).
  void mark_all_dirty();

  [[nodiscard]] const std::vector<FlowId>& changed_flows() const { return changed_flows_; }
  [[nodiscard]] const std::vector<std::size_t>& touched_resources() const {
    return touched_resources_;
  }

  /// Call `visit(r)` once for every resource r whose load changed bitwise
  /// since the previous drain.  Tracking starts at the first drain, which
  /// visits every resource; a solver that is never drained keeps no
  /// tracking state.  `visit` must not change the solver.
  template <typename Visit>
  void drain_load_changes(Visit&& visit) {
    if (!track_loads_) {
      track_loads_ = true;
      load_noted_.assign(capacity_.size(), 0);
      for (std::size_t r = 0; r < capacity_.size(); ++r) visit(r);
      return;
    }
    for (std::size_t r : load_changes_) {
      load_noted_[r] = 0;
      visit(r);
    }
    load_changes_.clear();
  }

  // ---- state accessors --------------------------------------------------

  [[nodiscard]] double rate(FlowId id) const { return flows_[id].rate; }
  [[nodiscard]] double load(std::size_t resource) const { return load_[resource]; }
  [[nodiscard]] double capacity(std::size_t resource) const { return capacity_[resource]; }
  /// Demand pressure: sum over the resource's flows of solo-rate * demand /
  /// capacity — see Resource::pressure().
  [[nodiscard]] double pressure(std::size_t resource) const { return pressure_[resource]; }
  [[nodiscard]] std::size_t resource_count() const { return capacity_.size(); }
  [[nodiscard]] std::size_t live_flow_count() const { return live_flows_; }

  /// Cumulative work/quality counters, for perf guards and benches.
  struct Stats {
    std::uint64_t solves = 0;            ///< solve() calls
    std::uint64_t full_solves = 0;       ///< solves that visited every live flow
    std::uint64_t partial_solves = 0;    ///< solves that skipped >= 1 clean component
    std::uint64_t components_solved = 0; ///< dirty components re-solved
    std::uint64_t flow_visits = 0;       ///< flow scans inside filling rounds
    /// Resources scanned inside filling rounds: per round, those reached by
    /// an unfixed flow (a dense pass would scan every component member).
    std::uint64_t resource_visits = 0;
    std::uint64_t partition_rebuilds = 0;///< union-find rebuilds after removals
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct FlowRec {
    double weight = 1.0;
    double rate_cap = 0.0;
    double rate = 0.0;
    /// rate_cap / weight (+inf when uncapped), precomputed at registration —
    /// weight and cap are immutable, so the filling rounds never divide.
    double cap_lambda = 0.0;
    std::uint64_t seq = 0;    ///< registration order; solve order within a component
    std::vector<MaxMinFlow::Entry> entries;
    /// Per-entry demand-pressure contribution (solo-rate * demand / capacity),
    /// cached because it only depends on this flow and the capacities it
    /// touches: recomputed lazily after a set_capacity() on the component.
    /// Empty with pressure_valid set means the solo rate is unbounded.
    std::vector<double> pressure_contrib;
    std::size_t comp_pos = 0; ///< position inside its component's flow list
    bool live = false;
    bool pressure_valid = false;
  };

  std::size_t find_root(std::size_t r);
  /// Union the components of a and b; returns the surviving root.
  std::size_t unite(std::size_t a, std::size_t b);
  void mark_dirty(std::size_t root);
  void rebuild_partition();
  void solve_component(std::size_t root, bool list_touched);

  // Resources.
  std::vector<double> capacity_;
  std::vector<double> load_;
  std::vector<double> pressure_;

  // Union-find over resources (merged on flow registration; removals leave
  // the partition over-merged, which is conservative-but-correct, and a
  // rebuild is scheduled once removals pile up).
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> comp_size_;              ///< valid at roots
  // comp_flows_ is kept sorted by FlowRec::seq (registration order) as an
  // invariant: appends are monotone in seq and removals erase in place, so
  // the common case needs no per-solve sort.  Merges and partition rebuilds
  // may break the order; they set comp_unsorted_ and solve_component()
  // restores it lazily.
  std::vector<std::vector<FlowId>> comp_flows_;     ///< valid at roots
  std::vector<char> comp_unsorted_;                 ///< valid at roots
  std::vector<std::vector<std::size_t>> comp_res_;  ///< valid at roots
  std::vector<char> dirty_;                         ///< valid at roots
  std::vector<std::size_t> dirty_roots_;

  // Flows.
  std::vector<FlowRec> flows_;
  std::vector<FlowId> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_flows_ = 0;           ///< live flows with >= 1 demand entry
  std::size_t removals_since_rebuild_ = 0;
  std::vector<FlowId> entryless_changed_;  ///< demandless flows solved at add

  // Solve outputs and reusable scratch (never shrunk: zero steady-state
  // allocation on the hot path).
  std::vector<FlowId> changed_flows_;
  std::vector<std::size_t> touched_resources_;
  // Load-change report (drain_load_changes); empty and off until the first
  // drain turns tracking on.
  bool track_loads_ = false;
  std::vector<char> load_noted_;           ///< per resource: in load_changes_
  std::vector<std::size_t> load_changes_;  ///< noted since the last drain
  std::vector<char> rebuild_res_dirty_;        ///< rebuild_partition scratch
  std::vector<std::uint32_t> res_local_;       ///< global res -> local slot
  std::vector<std::size_t> scratch_res_;       ///< component resources
  // Dense per-solve gather of the component's flows: per-flow weights plus
  // flattened demand entries (local resource slot, raw and weighted demand,
  // cached pressure contribution), indexed by sc_ent_begin_[f]..[f+1].
  // The entry arrays only grow; entries past sc_ent_begin_[n_flows] are
  // stale.
  std::vector<double> sc_weight_;
  std::vector<std::uint32_t> sc_ent_begin_;
  std::vector<std::uint32_t> sc_ent_local_;
  std::vector<double> sc_ent_demand_;
  std::vector<double> sc_ent_wdem_;
  std::vector<double> sc_ent_press_;
  std::vector<double> sc_cap_left_;
  std::vector<double> sc_load_;
  std::vector<double> sc_pressure_;
  std::vector<double> sc_cap_lambda_;
  std::vector<double> sc_rate_;
  // Filling-round state.  Per local resource slot: the weighted demand of
  // unfixed flows, and the round that last summed it or marked it a
  // bottleneck.  Rounds are numbered by a solver-lifetime epoch, so a stamp
  // left by an earlier round or solve never matches and nothing is cleared.
  std::vector<double> sc_weighted_demand_;
  std::vector<std::uint64_t> sc_res_round_;
  std::vector<std::uint64_t> sc_res_bottleneck_;
  std::vector<std::uint32_t> sc_active_flows_;  ///< unfixed flows, flow order
  std::vector<std::uint32_t> sc_active_res_;    ///< resources those reach
  std::vector<double> sc_ratio_;  ///< max(0, cap_left) / weighted demand, per loaded resource
  std::uint64_t round_epoch_ = 0;

  Stats stats_;
};

}  // namespace cci::sim
