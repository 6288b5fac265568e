#include "sim/maxmin.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/pool.hpp"

namespace cci::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative slack when deciding that a flow participates in the current
// bottleneck; absorbs round-off in the ratio computations.
constexpr double kSlack = 1e-12;
// ReachedRes::from of a resource a replay republishes only for its pressure.
constexpr std::uint32_t kPressureOnly = ~std::uint32_t{0};
}  // namespace

// ---- storage ----------------------------------------------------------------

void maxmin_detail::SolverArrays::clear() {
  const auto clear_all = [](auto&... arrays) { (arrays.clear(), ...); };
  clear_all(capacity_, load_, pressure_, adj_head_, adj_tail_, bneck_, reach_, parent_,
            comp_size_, flow_head_, flow_tail_, comp_flows_, comp_unsorted_, res_next_,
            res_tail_, dirty_, trace_of_, load_noted_, rebuild_res_dirty_, res_local_,
            sc_cap_left_, sc_load_, sc_pressure_, sc_weighted_demand_, sc_res_round_,
            sc_res_bottleneck_, sc_res_eq_, sc_active_res_, sc_ratio_, rp_res_mark_,
            rp_res_slot_);
  static_assert(sizeof(SolverArrays) == 31 * sizeof(std::vector<char>),
                "clear() must empty every array");
}

MaxMinSolver::MaxMinSolver() : SolverArrays(WarmStore<SolverArrays>::take()) {}

MaxMinSolver::~MaxMinSolver() {
  WarmStore<SolverArrays>::give(std::move(static_cast<SolverArrays&>(*this)));
}

// ---- resources and partition ----------------------------------------------

std::size_t MaxMinSolver::add_resource(double capacity) {
  assert(capacity >= 0.0);
  const std::size_t r = capacity_.size();
  capacity_.push_back(capacity);
  load_.push_back(0.0);
  pressure_.push_back(0.0);
  adj_head_.push_back(kNoLink);
  adj_tail_.push_back(kNoLink);
  bneck_.push_back(0);
  reach_.push_back(0);
  parent_.push_back(r);
  comp_size_.push_back(1);
  flow_head_.push_back(kNoFlow);
  flow_tail_.push_back(kNoFlow);
  comp_flows_.push_back(0);
  comp_unsorted_.push_back(0);
  res_next_.push_back(kNoRes);
  res_tail_.push_back(r);
  dirty_.push_back(0);
  trace_of_.push_back(kNoTrace);
  if (track_loads_) load_noted_.push_back(0);
  return r;
}

void MaxMinSolver::set_capacity(std::size_t resource, double capacity) {
  assert(capacity >= 0.0);
  capacity_[resource] = capacity;
  // Only the cached pressure contributions of flows crossing the resource
  // reference this capacity.
  for_each_adjacent(resource,
                    [this](FlowId f, std::uint32_t) { flows_[f].pressure_valid = false; });
  const std::size_t root = find_root(resource);
  const MaxMinFlow::Entry resized{resource, 0.0};
  record_change(root, 0.0, 0, {&resized, 1});
  mark_dirty(root);
}

std::size_t MaxMinSolver::find_root(std::size_t r) {
  std::size_t root = r;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[r] != root) {  // path compression
    std::size_t next = parent_[r];
    parent_[r] = root;
    r = next;
  }
  return root;
}

void MaxMinSolver::mark_dirty(std::size_t root) {
  if (!dirty_[root]) {
    dirty_[root] = 1;
    dirty_roots_.push_back(root);
  }
}

void MaxMinSolver::release_trace(std::size_t root) {
  const std::uint32_t t = trace_of_[root];
  if (t == kNoTrace) return;
  free_traces_.push_back(t);
  trace_of_[root] = kNoTrace;
}

void MaxMinSolver::record_change(std::size_t root, double cap_lambda, std::uint32_t round,
                                 std::span<const MaxMinFlow::Entry> entries) {
  if (trace_of_[root] == kNoTrace) return;
  Trace& tr = traces_[trace_of_[root]];
  if (tr.wait > 0) return;  // the next solve fills without replaying
  const auto c = static_cast<std::uint32_t>(changes_.size());
  Change& ch = changes_.emplace_back();
  ch.cap_lambda = cap_lambda;
  ch.round = round;
  ch.res_begin = static_cast<std::uint32_t>(change_res_.size());
  for (const MaxMinFlow::Entry& e : entries) change_res_.push_back(e.resource);
  ch.res_end = static_cast<std::uint32_t>(change_res_.size());
  if (tr.last_change == kNoChange)
    tr.first_change = c;
  else
    changes_[tr.last_change].next = c;
  tr.last_change = c;
}

std::size_t MaxMinSolver::unite(std::size_t a, std::size_t b) {
  if (a == b) return a;
  if (comp_size_[a] < comp_size_[b]) std::swap(a, b);
  // A trace survives a merge with a flowless, clean component: no flow
  // reaches its resources, and their loads, pressures and trace state are
  // already zero.  Any other merge leaves a full filling to do.
  std::uint32_t keep = kNoTrace;
  if (comp_flows_[b] == 0 && !dirty_[b])
    keep = trace_of_[a];
  else if (comp_flows_[a] == 0 && !dirty_[a])
    keep = trace_of_[b];
  if (trace_of_[a] != keep) release_trace(a);
  if (trace_of_[b] != keep) release_trace(b);
  trace_of_[a] = keep;
  trace_of_[b] = kNoTrace;

  parent_[b] = a;
  comp_size_[a] += comp_size_[b];
  // Concatenation only keeps the seq order when every flow of b registered
  // after every flow of a; otherwise flag the merged list for a lazy
  // re-sort at the next solve.
  if (comp_unsorted_[b] || (flow_tail_[a] != kNoFlow && flow_head_[b] != kNoFlow &&
                            flows_[flow_head_[b]].seq < flows_[flow_tail_[a]].seq))
    comp_unsorted_[a] = 1;
  comp_unsorted_[b] = 0;
  if (flow_head_[b] != kNoFlow) {
    if (flow_tail_[a] == kNoFlow) {
      flow_head_[a] = flow_head_[b];
    } else {
      flows_[flow_tail_[a]].comp_next = flow_head_[b];
      flows_[flow_head_[b]].comp_prev = flow_tail_[a];
    }
    flow_tail_[a] = flow_tail_[b];
    flow_head_[b] = kNoFlow;
    flow_tail_[b] = kNoFlow;
  }
  comp_flows_[a] += comp_flows_[b];
  comp_flows_[b] = 0;
  res_next_[res_tail_[a]] = b;  // b heads its own member list
  res_tail_[a] = res_tail_[b];
  if (dirty_[b]) {
    dirty_[b] = 0;
    mark_dirty(a);
  }
  return a;
}

// ---- flows ------------------------------------------------------------------

void MaxMinSolver::append_flow(std::size_t root, FlowId id) {
  FlowRec& rec = flows_[id];
  rec.comp_prev = flow_tail_[root];
  rec.comp_next = kNoFlow;
  if (flow_tail_[root] == kNoFlow) {
    flow_head_[root] = id;
  } else {
    if (flows_[flow_tail_[root]].seq > rec.seq) comp_unsorted_[root] = 1;
    flows_[flow_tail_[root]].comp_next = id;
  }
  flow_tail_[root] = id;
  ++comp_flows_[root];
}

MaxMinSolver::FlowId MaxMinSolver::add_flow(double weight, double rate_cap,
                                            const std::vector<MaxMinFlow::Entry>& entries) {
  assert(weight > 0.0);
  flows_changed_ = true;
  FlowId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = flows_.size();
    flows_.emplace_back();
  }
  FlowRec& rec = flows_[id];
  rec.weight = weight;
  rec.rate_cap = rate_cap;
  rec.rate = 0.0;
  rec.cap_lambda = rate_cap > 0.0 ? rate_cap / weight : kInf;
  rec.seq = next_seq_++;
  rec.entries = entries;
  rec.live = true;
  rec.pressure_valid = false;
  rec.round = 0;
  if (entries.empty()) {
    // No shared resource: the flow is only limited by its own cap.  Solved
    // eagerly; it never joins (or dirties) a component.
    rec.rate = rate_cap > 0.0 ? rate_cap : kInf;
    entryless_changed_.push_back(id);
    return id;
  }
  std::size_t root = find_root(entries.front().resource);
  for (std::size_t i = 1; i < entries.size(); ++i)
    root = unite(root, find_root(entries[i].resource));
  // Each entry joins the tail of its resource's adjacency, so every list
  // stays in registration order.
  rec.links.assign(entries.size(), EntryLinks{});
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const std::size_t r = entries[e].resource;
    const Link link = (static_cast<Link>(id) << 32) | e;
    rec.links[e].prev = adj_tail_[r];
    if (adj_tail_[r] == kNoLink)
      adj_head_[r] = link;
    else
      flows_[adj_tail_[r] >> 32].links[static_cast<std::uint32_t>(adj_tail_[r])].next = link;
    adj_tail_[r] = link;
  }
  append_flow(root, id);
  ++live_flows_;
  mark_dirty(root);
  return id;
}

void MaxMinSolver::remove_flow(FlowId id) {
  FlowRec& rec = flows_[id];
  assert(rec.live);
  flows_changed_ = true;
  rec.live = false;
  rec.rate = 0.0;
  if (!rec.entries.empty()) {
    const std::size_t root = find_root(rec.entries.front().resource);
    if (rec.comp_prev == kNoFlow)
      flow_head_[root] = rec.comp_next;
    else
      flows_[rec.comp_prev].comp_next = rec.comp_next;
    if (rec.comp_next == kNoFlow)
      flow_tail_[root] = rec.comp_prev;
    else
      flows_[rec.comp_next].comp_prev = rec.comp_prev;
    --comp_flows_[root];
    for (std::size_t e = 0; e < rec.entries.size(); ++e) {
      const std::size_t r = rec.entries[e].resource;
      const EntryLinks links = rec.links[e];
      if (links.prev == kNoLink)
        adj_head_[r] = links.next;
      else
        flows_[links.prev >> 32].links[static_cast<std::uint32_t>(links.prev)].next = links.next;
      if (links.next == kNoLink)
        adj_tail_[r] = links.prev;
      else
        flows_[links.next >> 32].links[static_cast<std::uint32_t>(links.next)].prev = links.prev;
    }
    if (rec.round != 0)  // in its component's trace, if there is one
      record_change(root, rec.cap_lambda, rec.round, rec.entries);
    mark_dirty(root);
    --live_flows_;
    ++removals_since_rebuild_;
  }
  rec.entries.clear();
  rec.links.clear();
  rec.comp_prev = kNoFlow;
  rec.comp_next = kNoFlow;
  free_slots_.push_back(id);
}

void MaxMinSolver::rebuild_partition() {
  // Removals leave the union-find over-merged (a superset component is
  // still solved correctly, just wastefully).  Rebuilding from the live
  // flows restores the tight partition; dirty marks are carried across by
  // remembering which *resources* sat in dirty components.  Traces go.
  ++stats_.partition_rebuilds;
  removals_since_rebuild_ = 0;
  const std::size_t n_res = capacity_.size();
  std::vector<char>& res_dirty = rebuild_res_dirty_;  // reused scratch, no alloc
  res_dirty.assign(n_res, 0);
  for (std::size_t r = 0; r < n_res; ++r) res_dirty[r] = dirty_[find_root(r)];
  for (std::size_t r = 0; r < n_res; ++r) {
    release_trace(r);
    parent_[r] = r;
    comp_size_[r] = 1;
    flow_head_[r] = kNoFlow;
    flow_tail_[r] = kNoFlow;
    comp_flows_[r] = 0;
    comp_unsorted_[r] = 0;
    res_next_[r] = kNoRes;
    res_tail_[r] = r;
    dirty_[r] = 0;
  }
  dirty_roots_.clear();
  for (FlowId id = 0; id < flows_.size(); ++id) {
    FlowRec& rec = flows_[id];
    if (!rec.live || rec.entries.empty()) continue;
    std::size_t root = find_root(rec.entries.front().resource);
    for (std::size_t i = 1; i < rec.entries.size(); ++i)
      root = unite(root, find_root(rec.entries[i].resource));
    // Iteration is in slot order, which differs from seq order once slots
    // have been recycled; append_flow flags any inversion for the lazy
    // re-sort.
    append_flow(root, id);
  }
  for (std::size_t r = 0; r < n_res; ++r)
    if (res_dirty[r]) mark_dirty(find_root(r));
}

// ---- solving ----------------------------------------------------------------

void MaxMinSolver::mark_all_dirty() {
  for (std::size_t r = 0; r < capacity_.size(); ++r) {
    release_trace(r);  // only roots hold one
    mark_dirty(find_root(r));
  }
}

void MaxMinSolver::solve(bool list_touched) {
  if (live_flows_ > 0 || flows_changed_) ++stats_.solves;
  flows_changed_ = false;
  changed_flows_.clear();
  touched_resources_.clear();
  for (FlowId id : entryless_changed_) changed_flows_.push_back(id);
  entryless_changed_.clear();

  if (removals_since_rebuild_ > 64 && removals_since_rebuild_ > live_flows_)
    rebuild_partition();

  std::size_t solved_flows = 0;
  for (std::size_t i = 0; i < dirty_roots_.size(); ++i) {
    const std::size_t root = dirty_roots_[i];
    if (parent_[root] != root || !dirty_[root]) continue;  // merged or stale
    dirty_[root] = 0;
    solved_flows += comp_flows_[root];
    ++stats_.components_solved;
    bool replayed = false;
    if (trace_of_[root] != kNoTrace && !comp_unsorted_[root]) {
      Trace& tr = traces_[trace_of_[root]];
      if (tr.wait > 0) {
        --tr.wait;
      } else if (replay_component(root, list_touched)) {
        tr.misses /= 2;
        replayed = true;
      } else {
        tr.misses = std::min<std::uint8_t>(tr.misses + 1, kMaxMisses);
        tr.wait = static_cast<std::uint8_t>((1u << (tr.misses - 1)) - 1);
      }
    }
    if (!replayed) fill_component(root, list_touched);
  }
  dirty_roots_.clear();
  changes_.clear();
  change_res_.clear();
  if (solved_flows >= live_flows_)
    ++stats_.full_solves;
  else
    ++stats_.partial_solves;
}

void MaxMinSolver::ensure_pressure(FlowRec& rec) {
  if (rec.pressure_valid) return;
  // Demand pressure: what the flow would push if it ran alone.  Cached per
  // entry (same expressions, same order, so every accumulation of it is
  // bitwise identical to a fresh computation); zero-capacity entries cache
  // 0.0, which adds exactly nothing to a non-negative accumulator.
  double solo = rec.rate_cap > 0.0 ? rec.rate_cap : kInf;
  for (const auto& e : rec.entries) {
    if (e.demand <= 0.0) continue;
    solo = std::min(solo, capacity_[e.resource] / e.demand);
  }
  rec.pressure_contrib.clear();
  if (std::isfinite(solo))
    for (const auto& e : rec.entries)
      rec.pressure_contrib.push_back(
          capacity_[e.resource] > 0.0 ? solo * e.demand / capacity_[e.resource] : 0.0);
  rec.pressure_valid = true;
}

void MaxMinSolver::fill_component(std::size_t root, bool list_touched) {
  ++stats_.components_filled;
  std::vector<std::size_t>& res_list = scratch_res_;
  res_list.clear();
  for (std::size_t r = root; r != kNoRes; r = res_next_[r]) res_list.push_back(r);
  const std::size_t n_res = res_list.size();

  // Solve order is registration order (seq), independent of how the
  // component was assembled — this keeps floating-point accumulation order
  // identical between a partial re-solve and a from-scratch solve.  The
  // list is seq-sorted by invariant; only a merge or a partition rebuild
  // leaves it unsorted, so the steady-state solve skips the sort entirely.
  std::vector<FlowId>& comp_flow_list = scratch_flows_;
  comp_flow_list.clear();
  for (FlowId id = flow_head_[root]; id != kNoFlow; id = flows_[id].comp_next)
    comp_flow_list.push_back(id);
  if (comp_unsorted_[root] && !comp_flow_list.empty()) {
    std::sort(comp_flow_list.begin(), comp_flow_list.end(),
              [this](FlowId a, FlowId b) { return flows_[a].seq < flows_[b].seq; });
    FlowId prev = kNoFlow;
    for (FlowId id : comp_flow_list) {
      flows_[id].comp_prev = prev;
      if (prev != kNoFlow) flows_[prev].comp_next = id;
      prev = id;
    }
    flows_[prev].comp_next = kNoFlow;
    flow_head_[root] = comp_flow_list.front();
    flow_tail_[root] = prev;
  }
  comp_unsorted_[root] = 0;
  const std::size_t n_flows = comp_flow_list.size();

  // Dense local resource indices.
  if (res_local_.size() < capacity_.size()) res_local_.resize(capacity_.size());
  for (std::size_t i = 0; i < n_res; ++i)
    res_local_[res_list[i]] = static_cast<std::uint32_t>(i);

  sc_cap_left_.assign(n_res, 0.0);
  sc_load_.assign(n_res, 0.0);
  sc_pressure_.assign(n_res, 0.0);
  for (std::size_t i = 0; i < n_res; ++i) sc_cap_left_[i] = capacity_[res_list[i]];

  // Gather the per-flow hot data into dense scratch, flattening the demand
  // entries (with pre-resolved local resource indices and pre-multiplied
  // weighted demands — the same products the rounds used to recompute).
  // FlowRecs are scattered through flows_, so this is the one
  // latency-bound pass: prefetch ahead, then the filling rounds below run
  // on contiguous arrays and never touch a FlowRec again until publish.
  // Entry offsets come first, so the entry arrays are sized once and
  // filled by index.
  for (std::size_t f = 0; f < n_flows; ++f)
    __builtin_prefetch(&flows_[comp_flow_list[f]]);
  sc_cap_lambda_.resize(n_flows);
  sc_weight_.resize(n_flows);
  sc_ent_begin_.resize(n_flows + 1);
  std::uint32_t n_entries = 0;
  for (std::size_t f = 0; f < n_flows; ++f) {
    const FlowRec& rec = flows_[comp_flow_list[f]];
    sc_cap_lambda_[f] = rec.cap_lambda;
    sc_weight_[f] = rec.weight;
    sc_ent_begin_[f] = n_entries;
    n_entries += static_cast<std::uint32_t>(rec.entries.size());
  }
  sc_ent_begin_[n_flows] = n_entries;
  if (sc_ent_local_.size() < n_entries) {
    sc_ent_local_.resize(n_entries);
    sc_ent_demand_.resize(n_entries);
    sc_ent_wdem_.resize(n_entries);
    sc_ent_press_.resize(n_entries);
  }
  for (std::size_t f = 0; f < n_flows; ++f) {
    FlowRec& rec = flows_[comp_flow_list[f]];
    ensure_pressure(rec);
    const bool has_press = !rec.pressure_contrib.empty();
    std::uint32_t k = sc_ent_begin_[f];
    for (std::size_t i = 0; i < rec.entries.size(); ++i, ++k) {
      const MaxMinFlow::Entry& e = rec.entries[i];
      sc_ent_local_[k] = res_local_[e.resource];
      sc_ent_demand_[k] = e.demand;
      sc_ent_wdem_[k] = rec.weight * e.demand;
      sc_ent_press_[k] = has_press ? rec.pressure_contrib[i] : 0.0;
    }
  }

  if (sc_weighted_demand_.size() < n_res) {
    sc_weighted_demand_.resize(n_res);
    sc_res_round_.resize(n_res, 0);
    sc_res_bottleneck_.resize(n_res, 0);
    sc_res_eq_.resize(n_res);
    sc_active_res_.resize(n_res);
    sc_ratio_.resize(n_res);
  }
  sc_active_flows_.resize(n_flows);
  for (std::size_t f = 0; f < n_flows; ++f) sc_active_flows_[f] = static_cast<std::uint32_t>(f);
  sc_rate_.assign(n_flows, 0.0);
  sc_round_.resize(n_flows);
  std::vector<double>& rate_out = sc_rate_;

  // The filling is recorded as the component's trace.  One that ends
  // through the no-freeze fallback or the infinite-lambda exit cannot be
  // replayed and is dropped below.  A flowless component keeps none: a
  // flow added to it would find no round to replay against.
  bool replayable = n_flows > 0;
  if (replayable && trace_of_[root] == kNoTrace) {
    if (free_traces_.empty()) {
      trace_of_[root] = static_cast<std::uint32_t>(traces_.size());
      traces_.emplace_back();
    } else {
      trace_of_[root] = free_traces_.back();
      free_traces_.pop_back();
    }
    traces_[trace_of_[root]].misses = 0;
    traces_[trace_of_[root]].wait = 0;
  }
  std::vector<Round>& rounds = rp_rounds_;
  rounds.clear();
  const std::uint64_t base_epoch = round_epoch_;
  std::uint32_t round = 0;

  // Fix flow f at lambda: its rate, and the capacity it uses up.
  auto freeze = [&](std::uint32_t f, double lambda) {
    const double rate = sc_weight_[f] * std::min(lambda, sc_cap_lambda_[f]);
    rate_out[f] = rate;
    sc_round_[f] = round;
    for (std::uint32_t k = sc_ent_begin_[f]; k < sc_ent_begin_[f + 1]; ++k) {
      const double used = rate * sc_ent_demand_[k];
      sc_cap_left_[sc_ent_local_[k]] -= used;
      sc_load_[sc_ent_local_[k]] += used;
    }
  };

  // Progressive filling.  A round walks only the unfixed flows (kept in
  // flow order, compacted as they freeze) and the resources their entries
  // reach; a resource no unfixed flow loads has zero weighted demand and
  // would be skipped by every pass anyway.
  std::size_t n_active = n_flows;
  while (n_active > 0) {
    const std::uint64_t epoch = ++round_epoch_;
    ++round;
    // Total weighted demand of unfixed flows per resource.  The first touch
    // in a round zeroes the sum and lists the resource, so each sum is the
    // same additions, in the same flow order, as a zero-fill followed by a
    // pass over every unfixed flow.
    std::size_t n_touched = 0;
    for (std::size_t i = 0; i < n_active; ++i) {
      const std::uint32_t f = sc_active_flows_[i];
      for (std::uint32_t k = sc_ent_begin_[f]; k < sc_ent_begin_[f + 1]; ++k) {
        const std::uint32_t r = sc_ent_local_[k];
        if (sc_res_round_[r] != epoch) {
          sc_res_round_[r] = epoch;
          sc_weighted_demand_[r] = 0.0;
          sc_active_res_[n_touched++] = r;
        }
        sc_weighted_demand_[r] += sc_ent_wdem_[k];
      }
    }
    stats_.flow_visits += n_active;
    stats_.resource_visits += n_touched;

    // Candidate lambda: tightest resource or tightest flow cap.  Each
    // loaded resource's ratio is computed once and kept (the list is
    // compacted to loaded resources) for the bottleneck test below.  Every
    // ratio is non-negative and never NaN, so the min does not depend on
    // scan order.
    double lambda = kInf;
    std::size_t n_loaded = 0;
    for (std::size_t i = 0; i < n_touched; ++i) {
      const std::uint32_t r = sc_active_res_[i];
      if (sc_weighted_demand_[r] <= 0.0) continue;
      const double ratio = std::max(0.0, sc_cap_left_[r]) / sc_weighted_demand_[r];
      lambda = std::min(lambda, ratio);
      sc_active_res_[n_loaded] = r;
      sc_ratio_[n_loaded] = ratio;
      ++n_loaded;
    }
    for (std::size_t i = 0; i < n_active; ++i)
      lambda = std::min(lambda, sc_cap_lambda_[sc_active_flows_[i]]);

    if (!std::isfinite(lambda)) {
      // Unfixed flows touch only zero-demand resources and have no caps.
      for (std::size_t i = 0; i < n_active; ++i) {
        rate_out[sc_active_flows_[i]] = kInf;
        sc_round_[sc_active_flows_[i]] = round;
      }
      replayable = false;
      break;
    }

    // Freeze every flow that is saturated at this lambda: either its own
    // cap binds, or it crosses a resource that just became a bottleneck.
    // The bottleneck set is fixed before any flow freezes.  The trace
    // counts the values equal to lambda: bottleneck ratios and the caps of
    // the flows they freeze.
    std::uint32_t n_eq = 0;
    for (std::size_t i = 0; i < n_loaded; ++i)
      if (sc_ratio_[i] <= lambda * (1.0 + kSlack) + kSlack) {
        sc_res_bottleneck_[sc_active_res_[i]] = epoch;
        sc_res_eq_[sc_active_res_[i]] = sc_ratio_[i] == lambda;
        n_eq += sc_ratio_[i] == lambda;
      }
    std::size_t n_kept = 0;
    for (std::size_t i = 0; i < n_active; ++i) {
      const std::uint32_t f = sc_active_flows_[i];
      bool saturated = sc_cap_lambda_[f] <= lambda * (1.0 + kSlack);
      if (!saturated)
        for (std::uint32_t k = sc_ent_begin_[f]; k < sc_ent_begin_[f + 1]; ++k)
          if (sc_res_bottleneck_[sc_ent_local_[k]] == epoch && sc_ent_demand_[k] > 0.0) {
            saturated = true;
            break;
          }
      if (saturated) {
        freeze(f, lambda);
        n_eq += sc_cap_lambda_[f] == lambda;
      } else {
        sc_active_flows_[n_kept++] = f;
      }
    }
    // Progressive filling must freeze at least one flow per round; if slack
    // comparisons ever fail to, freeze everything at lambda to terminate.
    if (n_kept == n_active) {
      for (std::size_t i = 0; i < n_active; ++i) freeze(sc_active_flows_[i], lambda);
      n_kept = 0;
      replayable = false;
    }
    rounds.push_back({lambda, n_eq, static_cast<std::uint32_t>(n_active - n_kept)});
    n_active = n_kept;
  }

  // Demand pressure: one dense pass over the flattened per-entry
  // contributions gathered above (flow order, then entry order — the same
  // accumulation order as the per-flow loop it replaces).
  for (std::uint32_t k = 0; k < n_entries; ++k)
    sc_pressure_[sc_ent_local_[k]] += sc_ent_press_[k];

  // Publish: rates that actually changed (bitwise), loads/pressures of all
  // member resources, and the trace.  While load changes are tracked, a
  // load whose bits differ from the value it replaces is noted once until
  // the next drain.
  std::uint64_t flow_rounds = 0;
  for (std::size_t f = 0; f < n_flows; ++f) {
    FlowRec& rec = flows_[comp_flow_list[f]];
    rec.round = sc_round_[f];
    flow_rounds += sc_round_[f];
    if (rate_out[f] != rec.rate) {
      rec.rate = rate_out[f];
      changed_flows_.push_back(comp_flow_list[f]);
    }
  }
  std::uint64_t res_rounds = 0;
  for (std::size_t i = 0; i < n_res; ++i) {
    const std::size_t r = res_list[i];
    if (track_loads_ && !load_noted_[r] &&
        std::bit_cast<std::uint64_t>(sc_load_[i]) != std::bit_cast<std::uint64_t>(load_[r])) {
      load_noted_[r] = 1;
      load_changes_.push_back(r);
    }
    load_[r] = sc_load_[i];
    pressure_[r] = sc_pressure_[i];
    // A resource is a bottleneck in at most one round: every flow loading
    // it freezes there.
    reach_[r] = sc_res_round_[i] > base_epoch
                    ? static_cast<std::uint32_t>(sc_res_round_[i] - base_epoch)
                    : 0;
    bneck_[r] = sc_res_bottleneck_[i] > base_epoch
                    ? static_cast<std::uint32_t>(sc_res_bottleneck_[i] - base_epoch) << 1 |
                          static_cast<std::uint32_t>(sc_res_eq_[i])
                    : 0;
    res_rounds += reach_[r];
  }
  if (replayable && rounds.size() <= kMaxRounds) {
    Trace& tr = traces_[trace_of_[root]];
    std::copy(rounds.begin(), rounds.end(), tr.rounds.begin());
    tr.n_rounds = static_cast<std::uint32_t>(rounds.size());
    tr.first_change = kNoChange;
    tr.last_change = kNoChange;
    tr.flow_rounds = flow_rounds;
    tr.res_rounds = res_rounds;
  } else {
    release_trace(root);
  }
  if (list_touched)
    touched_resources_.insert(touched_resources_.end(), res_list.begin(), res_list.end());
}

// ---- replay -----------------------------------------------------------------

MaxMinSolver::ReachedRes& MaxMinSolver::reach_resource(std::size_t r, std::uint32_t from) {
  if (rp_res_mark_[r] == replay_epoch_) return rp_res_[rp_res_slot_[r]];
  rp_res_mark_[r] = replay_epoch_;
  rp_res_slot_[r] = static_cast<std::uint32_t>(rp_res_.size());
  ReachedRes& rr = rp_res_.emplace_back();
  rr.r = r;
  rr.from = from;
  // Rounds before `from` replay as traced, so a bottleneck there stands.
  rr.bneck = (bneck_[r] >> 1) < from ? bneck_[r] : 0;
  return rr;
}

void MaxMinSolver::order_by_round(std::size_t r, std::uint32_t upto) {
  // Counting sort by round; within a round the adjacency's registration
  // order (then entry order) is kept.
  order_tmp_.clear();
  order_count_.assign(upto + 1, 0);
  for_each_adjacent(r, [&](FlowId f, std::uint32_t e) {
    const std::uint32_t fr = replay_round(flows_[f]);
    if (fr >= 1 && fr <= upto) {
      order_tmp_.push_back({f, e, fr});
      ++order_count_[fr];
    }
  });
  std::uint32_t start = 0;
  for (std::uint32_t j = 1; j <= upto; ++j) {
    const std::uint32_t n = order_count_[j];
    order_count_[j] = start;
    start += n;
  }
  order_.resize(order_tmp_.size());
  for (const OrderedEntry& oe : order_tmp_) order_[order_count_[oe.round]++] = oe;
}

bool MaxMinSolver::replay_component(std::size_t root, bool list_touched) {
  Trace& tr = traces_[trace_of_[root]];
  const std::uint32_t n_rounds = tr.n_rounds;
  std::size_t unfixed = comp_flows_[root];
  if (unfixed > 0 && n_rounds == 0) return false;

  ++replay_epoch_;
  if (rp_res_mark_.size() < capacity_.size()) {
    rp_res_mark_.resize(capacity_.size(), 0);
    rp_res_slot_.resize(capacity_.size());
  }
  rp_res_.clear();
  rp_flows_.clear();
  rp_rounds_.clear();

  // The changed set starts as the flows added since the trace: the tail of
  // the component's list (only a merge of two flow-carrying components,
  // which drops the trace, puts anything after them).  Their resources,
  // and those of the removed flows and capacity changes, differ from round
  // 1 on.
  for (FlowId id = flow_tail_[root]; id != kNoFlow && flows_[id].round == 0;
       id = flows_[id].comp_prev) {
    FlowRec& rec = flows_[id];
    rec.replay_mark = replay_epoch_;
    rec.next_round = 0;
    rp_flows_.push_back(id);
  }
  for (FlowId f : rp_flows_)
    for (const auto& e : flows_[f].entries) reach_resource(e.resource, 1);
  for_each_change(tr, [&](const Change& ch) {
    for (std::uint32_t i = ch.res_begin; i < ch.res_end; ++i) reach_resource(change_res_[i], 1);
  });
  std::size_t n_marked = rp_flows_.size();

  for (std::uint32_t k = 1; unfixed > 0; ++k) {
    if (k > n_rounds) return false;  // flows still unfixed after the last round
    // Flows whose freeze round moved last round differ from this one on.
    for (; n_marked < rp_flows_.size(); ++n_marked)
      for (const auto& e : flows_[rp_flows_[n_marked]].entries) reach_resource(e.resource, k);
    const std::size_t n_changed = rp_flows_.size();
    const double lambda = tr.rounds[k - 1].lambda;
    std::int64_t n_eq = tr.rounds[k - 1].n_eq;
    rp_member_changed_.clear();

    // Reached resources: weighted demand of the flows unfixed at k, and
    // capacity left after the freezes of rounds before k, each summed as
    // the filling sums it.  A resource reached before k carries its
    // capacity left forward by the freezes of round k - 1.
    for (ReachedRes& rr : rp_res_) {
      const std::size_t r = rr.r;
      double wd = 0.0;
      if (rr.from == k) {
        rr.cap_left = capacity_[r];
        if (k > 1) {
          order_by_round(r, k - 1);
          for (const OrderedEntry& oe : order_) {
            const FlowRec& rec = flows_[oe.flow];
            const double rate =
                rec.weight * std::min(tr.rounds[oe.round - 1].lambda, rec.cap_lambda);
            const double used = rate * rec.entries[oe.entry].demand;
            rr.cap_left -= used;
          }
        }
        for_each_adjacent(r, [&](FlowId f, std::uint32_t e) {
          const FlowRec& rec = flows_[f];
          const std::uint32_t fr = replay_round(rec);
          if (fr == 0 || fr >= k) {
            const double wdem = rec.weight * rec.entries[e].demand;
            wd += wdem;
          }
        });
      } else {
        const double prev_lambda = tr.rounds[k - 2].lambda;
        for_each_adjacent(r, [&](FlowId f, std::uint32_t e) {
          const FlowRec& rec = flows_[f];
          const std::uint32_t fr = replay_round(rec);
          if (fr == k - 1) {
            const double rate = rec.weight * std::min(prev_lambda, rec.cap_lambda);
            const double used = rate * rec.entries[e].demand;
            rr.cap_left -= used;
          } else if (fr == 0 || fr >= k) {
            const double wdem = rec.weight * rec.entries[e].demand;
            wd += wdem;
          }
        });
      }
      ++stats_.replay_resource_visits;
      // Swap the resource's traced ratio for its re-derived one in the
      // count of values equal to lambda.
      if (bneck_[r] == ((k << 1) | 1u)) --n_eq;
      bool member = false;
      if (wd > 0.0) {
        const double ratio = std::max(0.0, rr.cap_left) / wd;
        if (ratio < lambda) return false;
        n_eq += ratio == lambda;
        member = ratio <= lambda * (1.0 + kSlack) + kSlack;
        if (member) rr.bneck = (k << 1) | static_cast<std::uint32_t>(ratio == lambda);
      }
      if (member != ((bneck_[r] >> 1) == k)) rp_member_changed_.push_back(r);
    }
    // Changed flows: the same swap for their caps.
    for (std::size_t i = 0; i < n_changed; ++i) {
      const FlowRec& rec = flows_[rp_flows_[i]];
      if (rec.round == k && rec.cap_lambda == lambda) --n_eq;
      if (rec.next_round == 0) {
        if (rec.cap_lambda < lambda) return false;
        n_eq += rec.cap_lambda == lambda;
      }
    }
    for_each_change(tr, [&](const Change& ch) {
      if (ch.round == k && ch.cap_lambda == lambda) --n_eq;  // a removed flow's cap
    });
    // Nothing below lambda and something still at it: lambda is the exact
    // minimum of this round.
    if (n_eq <= 0) return false;

    // Saturation, with the filling's tests, for the changed flows still
    // unfixed and every unfixed flow on a resource whose bottleneck
    // membership changed.  Any other flow reads the same bits as traced.
    const std::uint64_t stamp = ++round_epoch_;
    const auto is_member = [&](std::size_t r) {
      const std::uint32_t b =
          rp_res_mark_[r] == replay_epoch_ ? rp_res_[rp_res_slot_[r]].bneck : bneck_[r];
      return (b >> 1) == k;
    };
    const auto retest = [&](FlowId f) {
      FlowRec& rec = flows_[f];
      if (rec.tested == stamp) return;
      rec.tested = stamp;
      bool saturated = rec.cap_lambda <= lambda * (1.0 + kSlack);
      if (!saturated)
        for (const auto& e : rec.entries)
          if (e.demand > 0.0 && is_member(e.resource)) {
            saturated = true;
            break;
          }
      if (rec.replay_mark == replay_epoch_) {
        if (saturated) rec.next_round = k;
      } else if (saturated != (rec.round == k)) {
        // Its freeze round moves: it joins the changed set from k + 1.
        rec.replay_mark = replay_epoch_;
        rec.next_round = saturated ? k : 0;
        rp_flows_.push_back(f);
      }
    };
    for (std::size_t i = 0; i < n_changed; ++i)
      if (flows_[rp_flows_[i]].next_round == 0) retest(rp_flows_[i]);
    for (std::size_t r : rp_member_changed_)
      for_each_adjacent(r, [&](FlowId f, std::uint32_t) {
        const std::uint32_t fr = replay_round(flows_[f]);
        if (fr == 0 || fr >= k) retest(f);
      });

    std::int64_t n_frozen = tr.rounds[k - 1].n_frozen;
    for (FlowId f : rp_flows_) {
      const FlowRec& rec = flows_[f];
      n_frozen -= rec.round == k && rec.next_round != k;
      n_frozen += rec.next_round == k && rec.round != k;
    }
    for_each_change(tr, [&](const Change& ch) { n_frozen -= ch.round == k; });
    if (n_frozen <= 0) return false;  // the filling's no-freeze fallback
    assert(static_cast<std::size_t>(n_frozen) <= unfixed);
    rp_rounds_.push_back(
        {lambda, static_cast<std::uint32_t>(n_eq), static_cast<std::uint32_t>(n_frozen)});
    unfixed -= static_cast<std::size_t>(n_frozen);
  }

  // Commit.  Resources of flows that moved in the last round, then those
  // whose pressure contributions changed: added and removed flows, and
  // flows crossing a capacity change.
  const auto n_new = static_cast<std::uint32_t>(rp_rounds_.size());
  for (; n_marked < rp_flows_.size(); ++n_marked)
    for (const auto& e : flows_[rp_flows_[n_marked]].entries)
      reach_resource(e.resource, n_new + 1);
  for (FlowId f : rp_flows_)
    if (flows_[f].round == 0)
      for (const auto& e : flows_[f].entries)
        reach_resource(e.resource, kPressureOnly).pressure = true;
  for_each_change(tr, [&](const Change& ch) {
    if (ch.round != 0) {
      for (std::uint32_t i = ch.res_begin; i < ch.res_end; ++i)
        reach_resource(change_res_[i], kPressureOnly).pressure = true;
    } else {
      for_each_adjacent(change_res_[ch.res_begin], [&](FlowId f, std::uint32_t) {
        for (const auto& e : flows_[f].entries)
          reach_resource(e.resource, kPressureOnly).pressure = true;
      });
    }
  });

  // Changed flows take their freeze round and rate; the changed-flow list
  // is in registration order.
  std::sort(rp_flows_.begin(), rp_flows_.end(),
            [this](FlowId a, FlowId b) { return flows_[a].seq < flows_[b].seq; });
  for (FlowId f : rp_flows_) {
    FlowRec& rec = flows_[f];
    tr.flow_rounds += rec.next_round;
    tr.flow_rounds -= rec.round;
    rec.round = rec.next_round;
    const double rate = rec.weight * std::min(rp_rounds_[rec.round - 1].lambda, rec.cap_lambda);
    if (rate != rec.rate) {
      rec.rate = rate;
      changed_flows_.push_back(f);
    }
  }
  for_each_change(tr, [&](const Change& ch) { tr.flow_rounds -= ch.round; });

  // Reached resources: bottleneck and reach rounds, and the load summed in
  // freeze order; pressures summed in registration order.
  for (const ReachedRes& rr : rp_res_) {
    const std::size_t r = rr.r;
    if (rr.from != kPressureOnly) {
      bneck_[r] = rr.bneck;
      std::uint32_t reach = 0;
      for_each_adjacent(r, [&](FlowId f, std::uint32_t) {
        reach = std::max(reach, flows_[f].round);
      });
      tr.res_rounds += reach;
      tr.res_rounds -= reach_[r];
      reach_[r] = reach;
      order_by_round(r, n_new);
      double load = 0.0;
      for (const OrderedEntry& oe : order_) {
        const FlowRec& rec = flows_[oe.flow];
        const double rate = rec.weight * std::min(rp_rounds_[oe.round - 1].lambda, rec.cap_lambda);
        const double used = rate * rec.entries[oe.entry].demand;
        load += used;
      }
      if (track_loads_ && !load_noted_[r] &&
          std::bit_cast<std::uint64_t>(load) != std::bit_cast<std::uint64_t>(load_[r])) {
        load_noted_[r] = 1;
        load_changes_.push_back(r);
      }
      load_[r] = load;
    }
    if (rr.pressure) {
      double pressure = 0.0;
      for_each_adjacent(r, [&](FlowId f, std::uint32_t e) {
        FlowRec& rec = flows_[f];
        ensure_pressure(rec);
        pressure += rec.pressure_contrib.empty() ? 0.0 : rec.pressure_contrib[e];
      });
      pressure_[r] = pressure;
    }
  }

  std::copy(rp_rounds_.begin(), rp_rounds_.end(), tr.rounds.begin());
  tr.n_rounds = n_new;
  tr.first_change = kNoChange;
  tr.last_change = kNoChange;
  stats_.flow_visits += tr.flow_rounds;
  stats_.resource_visits += tr.res_rounds;
  if (list_touched)
    for (std::size_t r = root; r != kNoRes; r = res_next_[r]) touched_resources_.push_back(r);
  return true;
}

// ---- pure wrapper -----------------------------------------------------------

MaxMinSolution solve_max_min(const MaxMinProblem& problem) {
  MaxMinSolver solver;
  for (double c : problem.capacity) solver.add_resource(c);
  for (const auto& flow : problem.flows)
    solver.add_flow(flow.weight, flow.rate_cap, flow.entries);
  solver.solve();
  MaxMinSolution out;
  out.rate.resize(problem.flows.size());
  out.load.resize(problem.capacity.size());
  for (std::size_t f = 0; f < problem.flows.size(); ++f) out.rate[f] = solver.rate(f);
  for (std::size_t r = 0; r < problem.capacity.size(); ++r) out.load[r] = solver.load(r);
  return out;
}

}  // namespace cci::sim
