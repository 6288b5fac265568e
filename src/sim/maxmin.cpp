#include "sim/maxmin.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace cci::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative slack when deciding that a flow participates in the current
// bottleneck; absorbs round-off in the ratio computations.
constexpr double kSlack = 1e-12;
constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
}  // namespace

// ---- resources and partition ----------------------------------------------

std::size_t MaxMinSolver::add_resource(double capacity) {
  assert(capacity >= 0.0);
  const std::size_t r = capacity_.size();
  capacity_.push_back(capacity);
  load_.push_back(0.0);
  pressure_.push_back(0.0);
  parent_.push_back(r);
  comp_size_.push_back(1);
  comp_flows_.emplace_back();
  comp_unsorted_.push_back(0);
  comp_res_.push_back({r});
  dirty_.push_back(0);
  if (track_loads_) load_noted_.push_back(0);
  return r;
}

void MaxMinSolver::set_capacity(std::size_t resource, double capacity) {
  assert(capacity >= 0.0);
  capacity_[resource] = capacity;
  const std::size_t root = find_root(resource);
  // Cached pressure contributions reference this capacity; every flow that
  // can touch the resource lives in its component (a superset after
  // removals, which only over-invalidates).
  for (FlowId id : comp_flows_[root]) flows_[id].pressure_valid = false;
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

std::size_t MaxMinSolver::unite(std::size_t a, std::size_t b) {
  if (a == b) return a;
  if (comp_size_[a] < comp_size_[b]) std::swap(a, b);
  parent_[b] = a;
  comp_size_[a] += comp_size_[b];
  // Concatenation only keeps the seq order when every flow of b registered
  // after every flow of a; otherwise flag the merged list for a lazy
  // re-sort at the next solve.
  if (comp_unsorted_[b] ||
      (!comp_flows_[a].empty() && !comp_flows_[b].empty() &&
       flows_[comp_flows_[b].front()].seq < flows_[comp_flows_[a].back()].seq))
    comp_unsorted_[a] = 1;
  comp_unsorted_[b] = 0;
  for (FlowId id : comp_flows_[b]) {
    flows_[id].comp_pos = comp_flows_[a].size();
    comp_flows_[a].push_back(id);
  }
  comp_flows_[b].clear();
  comp_res_[a].insert(comp_res_[a].end(), comp_res_[b].begin(), comp_res_[b].end());
  comp_res_[b].clear();
  if (dirty_[b]) {
    dirty_[b] = 0;
    mark_dirty(a);
  }
  return a;
}

// ---- flows ------------------------------------------------------------------

MaxMinSolver::FlowId MaxMinSolver::add_flow(double weight, double rate_cap,
                                            const std::vector<MaxMinFlow::Entry>& entries) {
  assert(weight > 0.0);
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
  rec.comp_pos = kNoPos;
  rec.pressure_valid = false;
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
  rec.comp_pos = comp_flows_[root].size();
  comp_flows_[root].push_back(id);
  ++live_flows_;
  mark_dirty(root);
  return id;
}

void MaxMinSolver::remove_flow(FlowId id) {
  FlowRec& rec = flows_[id];
  assert(rec.live);
  rec.live = false;
  rec.rate = 0.0;
  if (!rec.entries.empty()) {
    const std::size_t root = find_root(rec.entries.front().resource);
    auto& list = comp_flows_[root];
    const std::size_t pos = rec.comp_pos;
    // Ordered erase (not swap-with-back): keeps the list seq-sorted so the
    // solve that follows every removal can skip its sort.
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos));
    for (std::size_t i = pos; i < list.size(); ++i) flows_[list[i]].comp_pos = i;
    mark_dirty(root);
    --live_flows_;
    ++removals_since_rebuild_;
  }
  rec.entries.clear();
  rec.comp_pos = kNoPos;
  free_slots_.push_back(id);
}

void MaxMinSolver::rebuild_partition() {
  // Removals leave the union-find over-merged (a superset component is
  // still solved correctly, just wastefully).  Rebuilding from the live
  // flows restores the tight partition; dirty marks are carried across by
  // remembering which *resources* sat in dirty components.
  ++stats_.partition_rebuilds;
  removals_since_rebuild_ = 0;
  const std::size_t n_res = capacity_.size();
  std::vector<char>& res_dirty = rebuild_res_dirty_;  // reused scratch, no alloc
  res_dirty.assign(n_res, 0);
  for (std::size_t r = 0; r < n_res; ++r) res_dirty[r] = dirty_[find_root(r)];
  for (std::size_t r = 0; r < n_res; ++r) {
    parent_[r] = r;
    comp_size_[r] = 1;
    comp_flows_[r].clear();
    comp_unsorted_[r] = 0;
    comp_res_[r].clear();
    comp_res_[r].push_back(r);
    dirty_[r] = 0;
  }
  dirty_roots_.clear();
  for (FlowId id = 0; id < flows_.size(); ++id) {
    FlowRec& rec = flows_[id];
    if (!rec.live || rec.entries.empty()) continue;
    std::size_t root = find_root(rec.entries.front().resource);
    for (std::size_t i = 1; i < rec.entries.size(); ++i)
      root = unite(root, find_root(rec.entries[i].resource));
    auto& list = comp_flows_[root];
    // Iteration is in slot order, which differs from seq order once slots
    // have been recycled; flag any inversion for the lazy re-sort.
    if (!list.empty() && flows_[list.back()].seq > rec.seq) comp_unsorted_[root] = 1;
    rec.comp_pos = list.size();
    list.push_back(id);
  }
  for (std::size_t r = 0; r < n_res; ++r)
    if (res_dirty[r]) mark_dirty(find_root(r));
}

// ---- solving ----------------------------------------------------------------

void MaxMinSolver::mark_all_dirty() {
  for (std::size_t r = 0; r < capacity_.size(); ++r) mark_dirty(find_root(r));
}

void MaxMinSolver::solve(bool list_touched) {
  ++stats_.solves;
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
    solved_flows += comp_flows_[root].size();
    ++stats_.components_solved;
    solve_component(root, list_touched);
  }
  dirty_roots_.clear();
  if (solved_flows >= live_flows_)
    ++stats_.full_solves;
  else
    ++stats_.partial_solves;
}

void MaxMinSolver::solve_component(std::size_t root, bool list_touched) {
  const std::vector<std::size_t>& res_list = comp_res_[root];
  const std::size_t n_res = res_list.size();

  // Solve order is registration order (seq), independent of how the
  // component was assembled — this keeps floating-point accumulation order
  // identical between a partial re-solve and a from-scratch solve.  The
  // list is seq-sorted by invariant; only a merge or a partition rebuild
  // leaves it unsorted, so the steady-state solve skips the sort entirely.
  if (comp_unsorted_[root]) {
    auto& list = comp_flows_[root];
    std::sort(list.begin(), list.end(),
              [this](FlowId a, FlowId b) { return flows_[a].seq < flows_[b].seq; });
    for (std::size_t i = 0; i < list.size(); ++i) flows_[list[i]].comp_pos = i;
    comp_unsorted_[root] = 0;
  }
  const std::vector<FlowId>& comp_flow_list = comp_flows_[root];
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
    if (!rec.pressure_valid) {
      // Demand pressure: what the flow would push if it ran alone.  Cached
      // per entry (same expressions, same order, so the accumulation below
      // is bitwise identical to a fresh computation); zero-capacity entries
      // cache 0.0, which adds exactly nothing to a non-negative accumulator.
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
    sc_active_res_.resize(n_res);
    sc_ratio_.resize(n_res);
  }
  sc_active_flows_.resize(n_flows);
  for (std::size_t f = 0; f < n_flows; ++f) sc_active_flows_[f] = static_cast<std::uint32_t>(f);
  sc_rate_.assign(n_flows, 0.0);
  std::vector<double>& rate_out = sc_rate_;

  // Fix flow f at lambda: its rate, and the capacity it uses up.
  auto freeze = [&](std::uint32_t f, double lambda) {
    const double rate = sc_weight_[f] * std::min(lambda, sc_cap_lambda_[f]);
    rate_out[f] = rate;
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
      for (std::size_t i = 0; i < n_active; ++i) rate_out[sc_active_flows_[i]] = kInf;
      break;
    }

    // Freeze every flow that is saturated at this lambda: either its own
    // cap binds, or it crosses a resource that just became a bottleneck.
    // The bottleneck set is fixed before any flow freezes.
    for (std::size_t i = 0; i < n_loaded; ++i)
      if (sc_ratio_[i] <= lambda * (1.0 + kSlack) + kSlack)
        sc_res_bottleneck_[sc_active_res_[i]] = epoch;
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
      if (saturated)
        freeze(f, lambda);
      else
        sc_active_flows_[n_kept++] = f;
    }
    // Progressive filling must freeze at least one flow per round; if slack
    // comparisons ever fail to, freeze everything at lambda to terminate.
    if (n_kept == n_active) {
      for (std::size_t i = 0; i < n_active; ++i) freeze(sc_active_flows_[i], lambda);
      n_kept = 0;
    }
    n_active = n_kept;
  }

  // Demand pressure: one dense pass over the flattened per-entry
  // contributions gathered above (flow order, then entry order — the same
  // accumulation order as the per-flow loop it replaces).
  for (std::uint32_t k = 0; k < n_entries; ++k)
    sc_pressure_[sc_ent_local_[k]] += sc_ent_press_[k];

  // Publish: rates that actually changed (bitwise), loads/pressures of all
  // member resources.  While load changes are tracked, a load whose bits
  // differ from the value it replaces is noted once until the next drain.
  for (std::size_t f = 0; f < n_flows; ++f) {
    FlowRec& rec = flows_[comp_flow_list[f]];
    if (rate_out[f] != rec.rate) {
      rec.rate = rate_out[f];
      changed_flows_.push_back(comp_flow_list[f]);
    }
  }
  for (std::size_t i = 0; i < n_res; ++i) {
    const std::size_t r = res_list[i];
    if (track_loads_ && !load_noted_[r] &&
        std::bit_cast<std::uint64_t>(sc_load_[i]) != std::bit_cast<std::uint64_t>(load_[r])) {
      load_noted_[r] = 1;
      load_changes_.push_back(r);
    }
    load_[r] = sc_load_[i];
    pressure_[r] = sc_pressure_[i];
  }
  if (list_touched)
    touched_resources_.insert(touched_resources_.end(), res_list.begin(), res_list.end());
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
