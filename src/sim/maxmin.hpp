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
//    the touched component.  solve() then re-solves the dirty components
//    only — rates, loads and pressures of untouched components carry over
//    verbatim (bitwise), which is what makes partial re-solves
//    indistinguishable from full ones.
//
// Replayed solves.  A component's progressive filling leaves a trace: each
// round's lambda, how many resource ratios and flow caps equal it and how
// many flows froze in it, each flow's freeze round, and each resource's
// bottleneck round.  Each resource also lists the (flow, entry) pairs that
// demand it, in registration order.  The component's next solve replays
// that trace instead of filling again.  Round by round, it recomputes only
// the resources the changes reach (capacity changes, added and removed
// flows, and flows whose freeze round moved): their weighted demand and
// capacity left, from the same operands in the same order as a filling.
// From these it checks that no ratio or cap falls below the round's lambda
// and that at least one still equals it, so the lambda is still the exact
// minimum; it then re-derives the freezes those resources decide.  Anything
// else reads the same bits in every round, so the outcome is bitwise the
// full filling's, including the changed-flow list, the load-change report
// and the visit counters.  A replay that cannot prove a round falls back to
// the full filling, and a component whose replays keep falling back waits
// exponentially more solves before it tries again.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

namespace maxmin_detail {

/// A solver's arrays indexed by resource, or by a resource's slot in the
/// component being solved.  They live apart from the rest of the solver so
/// that it can take a thread's warm set at construction and hand its own
/// back at teardown (WarmStore): a model built on a thread that built one
/// before reuses those pages.  clear() empties every array (size 0), so
/// nothing of an earlier solver — its round and replay stamps above all —
/// survives into the next.
struct SolverArrays {
  // Resources.
  std::vector<double> capacity_;
  std::vector<double> load_;
  std::vector<double> pressure_;
  // Adjacency: the demand entries naming each resource, in registration
  // order, linked through FlowRec::links ((flow slot << 32) | entry).
  std::vector<std::uint64_t> adj_head_;
  std::vector<std::uint64_t> adj_tail_;
  // Per-resource trace state (meaningful while its component has a trace;
  // 0 for a resource no flow reaches): bottleneck round << 1 | whether its
  // ratio equalled lambda there, and the last round a flow reached it.
  std::vector<std::uint32_t> bneck_;
  std::vector<std::uint32_t> reach_;

  // Union-find over resources (merged on flow registration; removals leave
  // the partition over-merged, which is conservative-but-correct, and a
  // rebuild is scheduled once removals pile up).
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> comp_size_;              ///< valid at roots
  // Each component lists its flows through FlowRec::comp_prev/comp_next,
  // kept sorted by FlowRec::seq (registration order) as an invariant:
  // appends are monotone in seq and removals unlink in place, so the common
  // case needs no per-solve sort.  Merges and partition rebuilds may break
  // the order; they set comp_unsorted_ and fill_component() restores it
  // lazily.
  std::vector<std::size_t> flow_head_;              ///< valid at roots
  std::vector<std::size_t> flow_tail_;              ///< valid at roots
  std::vector<std::size_t> comp_flows_;             ///< flow count, valid at roots
  std::vector<char> comp_unsorted_;                 ///< valid at roots
  // Member resources, linked root first: res_next_ per resource, the last
  // member at each root.
  std::vector<std::size_t> res_next_;
  std::vector<std::size_t> res_tail_;               ///< valid at roots
  std::vector<char> dirty_;                         ///< valid at roots
  std::vector<std::uint32_t> trace_of_;             ///< index into traces_, valid at roots

  std::vector<char> load_noted_;                ///< per resource: in load_changes_
  std::vector<char> rebuild_res_dirty_;         ///< rebuild_partition scratch
  std::vector<std::uint32_t> res_local_;        ///< global res -> local slot
  // Per local slot of the component being filled: capacity left, load and
  // pressure summed so far.
  std::vector<double> sc_cap_left_;
  std::vector<double> sc_load_;
  std::vector<double> sc_pressure_;
  // Filling-round state.  Per local resource slot: the weighted demand of
  // unfixed flows, and the round that last summed it or marked it a
  // bottleneck (with whether its ratio equalled lambda there).  Rounds are
  // numbered by a solver-lifetime epoch, so a stamp left by an earlier
  // round or solve never matches and nothing is cleared.
  std::vector<double> sc_weighted_demand_;
  std::vector<std::uint64_t> sc_res_round_;
  std::vector<std::uint64_t> sc_res_bottleneck_;
  std::vector<char> sc_res_eq_;
  std::vector<std::uint32_t> sc_active_res_;    ///< resources unfixed flows reach
  std::vector<double> sc_ratio_;  ///< max(0, cap_left) / weighted demand, per loaded resource
  // Replay: the replay epoch that reached a resource, and its slot in the
  // replay's reached list.
  std::vector<std::uint64_t> rp_res_mark_;
  std::vector<std::uint32_t> rp_res_slot_;

  void clear();
  [[nodiscard]] std::size_t capacity() const { return capacity_.capacity(); }
};

}  // namespace maxmin_detail

/// Incremental solver: persistent flow records + connected-component
/// partial re-solves.  Not thread-safe (the engine is single-threaded).
/// Its per-resource arrays come from, and go back to, the thread's
/// WarmStore.
class MaxMinSolver : private maxmin_detail::SolverArrays {
 public:
  MaxMinSolver();
  ~MaxMinSolver();
  MaxMinSolver(const MaxMinSolver&) = delete;
  MaxMinSolver& operator=(const MaxMinSolver&) = delete;

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

  /// Cumulative work/quality counters, for perf guards and benches.
  struct Stats {
    /// solve() calls with a flow to solve or a flow change to publish.  A
    /// call while no flow is live and none came or went since the previous
    /// call only re-solves flowless components, whose loads stay 0, and is
    /// not counted: whether a capacity change before traffic is solved at
    /// once (registry or tracer on) or left for the next change point, the
    /// count is the same.
    std::uint64_t solves = 0;
    /// Every solve() call: those that visited every live flow, and those
    /// that skipped at least one clean component.
    std::uint64_t full_solves = 0;
    std::uint64_t partial_solves = 0;
    std::uint64_t components_solved = 0; ///< dirty components re-solved
    /// Flow scans inside filling rounds: the sum of the solved components'
    /// freeze rounds, whether the component was filled or replayed.
    std::uint64_t flow_visits = 0;
    /// Resources scanned inside filling rounds: per round, those reached by
    /// an unfixed flow (a dense pass would scan every component member).
    /// A replay adds what the filling would have scanned.
    std::uint64_t resource_visits = 0;
    std::uint64_t partition_rebuilds = 0;///< union-find rebuilds after removals
    /// Dirty components solved by a full progressive filling: those with no
    /// trace to replay, and replays that fell back.
    std::uint64_t components_filled = 0;
    /// Resources a replay recomputed, summed over its rounds (the filling's
    /// counterpart is resource_visits).
    std::uint64_t replay_resource_visits = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// A demand entry's place in its resource's adjacency list:
  /// (flow slot << 32) | entry index.
  using Link = std::uint64_t;
  static constexpr Link kNoLink = ~Link{0};
  static constexpr std::size_t kNoRes = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoTrace = ~std::uint32_t{0};

  struct EntryLinks {
    Link prev = kNoLink;
    Link next = kNoLink;
  };

  struct FlowRec {
    double weight = 1.0;
    double rate_cap = 0.0;
    double rate = 0.0;
    /// rate_cap / weight (+inf when uncapped), precomputed at registration —
    /// weight and cap are immutable, so the filling rounds never divide.
    double cap_lambda = 0.0;
    std::uint64_t seq = 0;    ///< registration order; solve order within a component
    FlowId comp_next = kNoFlow;  ///< neighbours in the component's flow list
    FlowId comp_prev = kNoFlow;
    /// Freeze round in its component's trace; 0 while it is not in one.
    std::uint32_t round = 0;
    std::uint32_t next_round = 0;   ///< replay: freeze round derived so far (0: unfixed)
    bool live = false;
    bool pressure_valid = false;
    std::vector<MaxMinFlow::Entry> entries;
    /// Per-entry demand-pressure contribution (solo-rate * demand / capacity),
    /// cached because it only depends on this flow and the capacities it
    /// touches: recomputed lazily after a set_capacity() on one of them.
    /// Empty with pressure_valid set means the solo rate is unbounded.
    std::vector<double> pressure_contrib;
    std::vector<EntryLinks> links;  ///< per entry: neighbours in its resource's adjacency
    std::uint64_t replay_mark = 0;  ///< replay that put it in the changed set
    std::uint64_t tested = 0;       ///< round epoch of its last replayed saturation test
  };

  /// One filling round of a trace.
  struct Round {
    double lambda = 0.0;
    std::uint32_t n_eq = 0;      ///< loaded resource ratios and unfixed flow caps == lambda
    std::uint32_t n_frozen = 0;  ///< flows frozen in the round
  };
  /// A filling of more rounds keeps no trace.  Fixed storage keeps a
  /// recycled trace from growing, so steady state allocates nothing.
  static constexpr std::uint32_t kMaxRounds = 32;
  static constexpr std::uint32_t kNoChange = ~std::uint32_t{0};
  /// A change to a traced component since its trace was taken: a removed
  /// traced flow, kept by value (its slot may be reused before the next
  /// solve), or a capacity change (round 0).  Flows added since are the
  /// component list's tail of flows with round 0.
  struct Change {
    double cap_lambda = 0.0;
    std::uint32_t round = 0;
    std::uint32_t next = kNoChange;  ///< the trace's next change
    std::uint32_t res_begin = 0;     ///< its resources in change_res_
    std::uint32_t res_end = 0;
  };
  /// A component's last progressive filling, and the changes since.
  struct Trace {
    std::array<Round, kMaxRounds> rounds;
    std::uint32_t n_rounds = 0;
    std::uint32_t first_change = kNoChange;
    std::uint32_t last_change = kNoChange;
    std::uint64_t flow_rounds = 0;  ///< sum of the flows' freeze rounds
    std::uint64_t res_rounds = 0;   ///< sum of the members' reach rounds
    /// Recent replay fallbacks of this component (one more per fallback,
    /// halved per replay), and the solves it fills without trying one: a
    /// component whose lambda moves at most changes backs off
    /// exponentially instead of paying a failed replay before each
    /// filling.
    std::uint8_t misses = 0;
    std::uint8_t wait = 0;
  };
  static constexpr std::uint8_t kMaxMisses = 6;  ///< longest wait: 31 solves
  /// Replay scratch: a resource the changes reach, with its re-derived state.
  struct ReachedRes {
    std::size_t r = 0;
    std::uint32_t from = 0;   ///< first round its operands may differ
    std::uint32_t bneck = 0;  ///< re-derived bottleneck round << 1 | ratio == lambda
    double cap_left = 0.0;    ///< capacity left at the round being replayed
    bool pressure = false;    ///< its pressure contributions changed
  };
  struct OrderedEntry {
    FlowId flow;
    std::uint32_t entry;
    std::uint32_t round;
  };

  std::size_t find_root(std::size_t r);
  /// Union the components of a and b; returns the surviving root.
  std::size_t unite(std::size_t a, std::size_t b);
  void mark_dirty(std::size_t root);
  void rebuild_partition();
  void release_trace(std::size_t root);
  /// Journal a change to root's trace, if it has one: round 0 for a
  /// capacity change, else a removed flow's freeze round and cap.
  void record_change(std::size_t root, double cap_lambda, std::uint32_t round,
                     std::span<const MaxMinFlow::Entry> entries);
  template <typename Fn>
  void for_each_change(const Trace& tr, Fn&& fn) const {
    for (std::uint32_t c = tr.first_change; c != kNoChange; c = changes_[c].next) fn(changes_[c]);
  }
  void fill_component(std::size_t root, bool list_touched);
  bool replay_component(std::size_t root, bool list_touched);
  void ensure_pressure(FlowRec& rec);
  void append_flow(std::size_t root, FlowId id);
  /// A flow's freeze round as the replay in progress derives it.
  [[nodiscard]] std::uint32_t replay_round(const FlowRec& rec) const {
    return rec.replay_mark == replay_epoch_ ? rec.next_round : rec.round;
  }
  ReachedRes& reach_resource(std::size_t r, std::uint32_t from);
  /// Fill order_ with r's entries frozen in rounds 1..upto, in freeze
  /// order: round, then registration, then entry.
  void order_by_round(std::size_t r, std::uint32_t upto);

  template <typename Fn>
  void for_each_adjacent(std::size_t r, Fn&& fn) {
    for (Link l = adj_head_[r]; l != kNoLink;) {
      const FlowId f = static_cast<FlowId>(l >> 32);
      const auto e = static_cast<std::uint32_t>(l);
      const Link next = flows_[f].links[e].next;
      fn(f, e);
      l = next;
    }
  }

  std::vector<std::size_t> dirty_roots_;
  std::vector<Trace> traces_;
  std::vector<std::uint32_t> free_traces_;
  // Change journal of every trace, linked per trace through Change::next.
  // Every traced component with a change is dirty, so each solve() consumes
  // them all and empties the journal.
  std::vector<Change> changes_;
  std::vector<std::size_t> change_res_;

  // Flows.
  std::vector<FlowRec> flows_;
  std::vector<FlowId> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_flows_ = 0;           ///< live flows with >= 1 demand entry
  bool flows_changed_ = false;           ///< a flow came or went since the last solve()
  std::size_t removals_since_rebuild_ = 0;
  std::vector<FlowId> entryless_changed_;  ///< demandless flows solved at add

  // Solve outputs and reusable scratch (never shrunk: zero steady-state
  // allocation on the hot path).
  std::vector<FlowId> changed_flows_;
  std::vector<std::size_t> touched_resources_;
  // Load-change report (drain_load_changes); empty and off until the first
  // drain turns tracking on.
  bool track_loads_ = false;
  std::vector<std::size_t> load_changes_;  ///< noted since the last drain
  std::vector<std::size_t> scratch_res_;       ///< component resources
  std::vector<FlowId> scratch_flows_;          ///< component flows, seq order
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
  std::vector<double> sc_cap_lambda_;
  std::vector<double> sc_rate_;
  std::vector<std::uint32_t> sc_round_;  ///< per flow: its freeze round
  std::vector<std::uint32_t> sc_active_flows_;  ///< unfixed flows, flow order
  /// Filling-round epoch (see SolverArrays::sc_res_round_).
  std::uint64_t round_epoch_ = 0;

  // Replay scratch.  A resource is in rp_res_ when rp_res_mark_ holds the
  // current replay epoch; a flow is in the changed set rp_flows_ when its
  // replay_mark does.
  std::uint64_t replay_epoch_ = 0;
  std::vector<ReachedRes> rp_res_;
  std::vector<FlowId> rp_flows_;
  std::vector<std::size_t> rp_member_changed_;
  std::vector<Round> rp_rounds_;
  std::vector<OrderedEntry> order_;
  std::vector<OrderedEntry> order_tmp_;
  std::vector<std::uint32_t> order_count_;

  Stats stats_;
};

}  // namespace cci::sim
