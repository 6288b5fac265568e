#include "sim/flow_model.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

namespace cci::sim {

namespace {
/// Completion slack: absorbs linear-progress round-off.  Activities whose
/// total work is below this threshold complete at start without ever
/// entering the solver.
double completion_eps(double work) { return std::max(1.0, work) * 1e-9; }
}  // namespace

FlowModel::FlowModel(Engine& engine)
    : engine_(engine), activity_pool_("activity"), chunks_(WarmStore<Chunks>::take()) {
  engine_.register_pool(&activity_pool_);
  obs_reg_ = &obs::Registry::global();
  obs_resolves_ = &obs_reg_->counter("sim.flow.resolves");
  obs_resolves_full_ = &obs_reg_->counter("sim.flow.resolves_full");
  obs_resolves_partial_ = &obs_reg_->counter("sim.flow.resolves_partial");
  obs_flow_visits_ = &obs_reg_->counter("sim.flow.solver_flow_visits");
  obs_components_solved_ = &obs_reg_->counter("sim.flow.components_solved");
  obs_started_ = &obs_reg_->counter("sim.flow.activities_started");
  obs_solve_wall_us_ = &obs_reg_->histogram("sim.flow.solve_wall_us");
  obs_bound_ = obs_reg_->enabled();
  // Watchdog support: when a run stalls, name every activity still in
  // flight — a rate of zero marks the flows the deadlock is stuck on
  // (capacity gone, blackout, ...).  Registered once; the model outlives
  // every run() of the engine it drives.
  engine_.add_stall_inspector([this](std::vector<std::string>& out) {
    for (const ActivityPtr& act : running_) {
      const double total = act->spec().work;
      const double done = act->work_done();
      std::string desc = "activity '" + engine_.label_str(act->spec().label) + "'";
      desc += act->rate() == 0.0 ? " STALLED (rate 0)"
                                 : " rate=" + std::to_string(act->rate());
      desc += ", work " + std::to_string(done) + "/" + std::to_string(total);
      if (!act->spec().demands.empty() && act->spec().demands.front().resource != nullptr)
        desc += ", first resource '" + act->spec().demands.front().resource->name() + "'";
      out.push_back(std::move(desc));
    }
  });
}

FlowModel::~FlowModel() {
  // The engine keeps publishing registered pool stats at run() ends; drop
  // ours before the pool dies.  (Activities still referenced elsewhere are
  // handled by the pool's orphan-slab path.)
  engine_.unregister_pool(&activity_pool_);
  static_assert(std::is_trivially_destructible_v<Resource>,
                "chunks are reused without running destructors");
  WarmStore<Chunks>::give(std::move(chunks_));
}

void Resource::set_capacity(double capacity) {
  assert(capacity >= 0.0);
  if (capacity == capacity_) return;
  // Close the work/attribution integrals under the *outgoing* capacity
  // first: rates and loads stay those of the old allocation until the
  // re-solve below, and advance() is idempotent (the one inside
  // reallocate() then sees dt == 0).
  model_->advance();
  capacity_ = capacity;
  model_->on_capacity_changed(this);
}

Resource* FlowModel::add_resource(std::string name, double capacity) {
  names_.names.push_back(std::move(name));
  return add_resource(names_, static_cast<std::uint32_t>(names_.names.size() - 1), capacity);
}

Resource* FlowModel::add_resource(const ResourceNamer& owner, std::uint32_t key,
                                  double capacity) {
  const std::size_t index = chunks_.size;
  if (index / Chunks::kPerChunk == chunks_.chunks.size())
    chunks_.chunks.push_back(std::make_unique_for_overwrite<Chunks::Cell[]>(Chunks::kPerChunk));
  auto* r = new (&chunks_.chunks[index / Chunks::kPerChunk][index % Chunks::kPerChunk])
      Resource(this, &solver_, static_cast<std::uint32_t>(index), &owner, key, capacity);
  ++chunks_.size;
  const std::size_t solver_index = solver_.add_resource(capacity);
  assert(solver_index == index);
  (void)solver_index;
  if (obs_bound_) bind_resource_obs(*r);
  return r;
}

void FlowModel::bind_resource_obs(const Resource& r) {
  assert(res_obs_.size() == r.index());
  ResourceObs& ro = res_obs_.emplace_back();
  const std::string name = r.name();  // formatted once, by the owner
  // Metric names assembled in a stack buffer; the registry's heterogeneous
  // string_view lookup means no temporary std::string on re-registration.
  char buf[192];
  std::snprintf(buf, sizeof buf, "sim.resource.%s.work_units", name.c_str());
  ro.work = &obs_reg_->counter(buf);
  std::snprintf(buf, sizeof buf, "sim.resource.%s.utilization", name.c_str());
  ro.util = &obs_reg_->gauge(buf);
  std::snprintf(buf, sizeof buf, "sim.resource.%s.pressure", name.c_str());
  ro.pressure = &obs_reg_->gauge(buf);
  ro.load_series = "sim.resource." + name + ".load";
  ro.track_series = "sim.res." + name;
}

void FlowModel::bind_obs() {
  obs_bound_ = true;
  res_obs_.reserve(chunks_.size);
  for (std::size_t i = 0; i < chunks_.size; ++i) bind_resource_obs(resource(i));
}

ActivityPtr FlowModel::start(ActivitySpec spec) {
  ActivityPtr act = activity_pool_.make(engine_, std::move(spec));
  Activity* a = act.get();
  a->seq_ = next_activity_seq_++;
  a->run_slot_ = running_.size();
  running_.push_back(act);
  obs_started_->add(1);
  if (a->spec_.work <= completion_eps(a->spec_.work)) {
    // Degenerate work: completes in the harvest pass of the reallocate()
    // below, without ever registering a solver flow.
    heap_set(a, engine_.now());
  } else {
    entries_scratch_.clear();
    entries_scratch_.reserve(a->spec_.demands.size());
    for (const auto& d : a->spec_.demands)
      entries_scratch_.push_back({d.resource->index_, d.amount});
    a->flow_id_ = solver_.add_flow(a->spec_.weight, a->spec_.rate_cap, entries_scratch_);
    if (flow_act_.size() <= a->flow_id_)
      flow_act_.resize(std::max(flow_act_.size() * 2, a->flow_id_ + 1), nullptr);
    flow_act_[a->flow_id_] = a;
  }
  if (profiler_ != nullptr) refresh_solo_rate(*a);
  reallocate();
  return act;
}

void FlowModel::cancel(const ActivityPtr& activity) {
  Activity* a = activity.get();
  if (!a || a->run_slot_ == Activity::kNoSlot || a->run_slot_ >= running_.size() ||
      running_[a->run_slot_].get() != a)
    return;
  advance();
  const Time now = engine_.now();
  // Freeze progress at the cancellation instant.
  double w = a->work_done();
  a->work_base_ = w;
  a->base_time_ = now;
  a->rate_ = 0.0;
  heap_erase(a);
  if (a->flow_id_ != Activity::kNoSlot) {
    flow_act_[a->flow_id_] = nullptr;
    solver_.remove_flow(a->flow_id_);
    a->flow_id_ = Activity::kNoSlot;
  }
  ActivityPtr owned = detach_running(a);
  trace_activity(*a, " (cancelled)");
  reallocate();
}

void FlowModel::trace_activity(const Activity& act, const char* suffix) {
  obs::Tracer& tracer = obs_reg_->tracer();
  if (!tracer.on()) return;
  if (!obs_bound_) bind_obs();
  const auto& spec = act.spec();
  static const std::string kUnbound = "sim.res.unbound";
  const std::string& series = spec.demands.empty()
                                  ? kUnbound
                                  : res_obs_[spec.demands.front().resource->index_].track_series;
  obs::TrackId track = tracer.track(series);
  const std::string& name = engine_.label_str(spec.label);
  std::string label = name.empty() ? "activity" : name;
  tracer.span(track, label + suffix, act.started_at(), engine_.now());
}

void FlowModel::on_capacity_changed(Resource* resource) {
  solver_.set_capacity(resource->index_, resource->capacity_);
  // Isolated rates depend only on capacities and the activity's own spec,
  // so a capacity change invalidates them all at once.  Capacity changes
  // (DVFS transitions, failovers) are rare next to flow churn, so the
  // O(running) sweep is off the hot path.
  if (profiler_ != nullptr)
    for (const ActivityPtr& act : running_) refresh_solo_rate(*act);
  // Nothing running means no flow and no completion: a re-solve would only
  // rewrite zero loads and pressures.  With the registry and the tracer
  // off nothing publishes them either, so the change stays recorded (its
  // component dirty) for the next change point to solve.  Machines and
  // worlds set their clocks this way before any traffic starts.
  if (running_.empty() && !obs_reg_->enabled() && !obs_reg_->tracer().on()) return;
  reallocate();
}

void FlowModel::advance() {
  const Time now = engine_.now();
  const Time dt = now - last_advance_;
  if (dt > 0.0 && obs_reg_->enabled()) {
    if (!obs_bound_) bind_obs();
    // Work-unit integral per resource: loads were constant since the last
    // change point, so load * dt is exact (bytes moved per controller).
    for (std::size_t i = 0; i < chunks_.size; ++i) {
      const double load = solver_.load(i);
      if (load > 0.0) res_obs_[i].work->add(load * dt);
    }
  }
  if (dt > 0.0 && profiler_ != nullptr) profile_advance(dt);
  last_advance_ = now;
}

void FlowModel::set_profiler(InterferenceProfiler* profiler) {
  advance();  // close the open interval under the previous attachment state
  profiler_ = profiler;
  if (profiler_ != nullptr)
    for (const ActivityPtr& act : running_) refresh_solo_rate(*act);
}

void FlowModel::refresh_solo_rate(Activity& act) const {
  double solo = act.spec_.rate_cap > 0.0 ? act.spec_.rate_cap
                                         : std::numeric_limits<double>::infinity();
  for (const auto& d : act.spec_.demands)
    if (d.amount > 0.0) solo = std::min(solo, d.resource->capacity_ / d.amount);
  act.solo_rate_ = solo;
}

void FlowModel::profile_advance(Time dt) {
  const Time now = engine_.now();
  AttributionReport& rep = profiler_->report_;
  std::vector<double>& cl = profiler_->class_load_;
  cl.assign(chunks_.size * kProfileClasses, 0.0);
  // Pass 1: decompose each resource's load by activity class.  rate x
  // demand is exactly the usage the solver granted on that resource, so the
  // class shares sum to the resource's load.
  for (const ActivityPtr& act : running_) {
    const Activity& a = *act;
    if (!(a.rate_ > 0.0) || !std::isfinite(a.rate_)) continue;
    for (const auto& d : a.spec_.demands)
      cl[d.resource->index_ * kProfileClasses + a.spec_.profile_class] +=
          a.rate_ * d.amount;
  }
  // Pass 2: split each activity's dt.  Activities started exactly at the
  // interval's end (start() pushes to running_ before the reallocate that
  // closes the interval) did not run during it and are skipped; everything
  // older was running for the whole interval, because starting an activity
  // is itself a change point.
  for (const ActivityPtr& act : running_) {
    const Activity& a = *act;
    if (a.started_at_ >= now) continue;
    const ProfileClass v = a.spec_.profile_class;
    rep.busy[v] += dt;
    double iso_dt = dt;
    if (std::isfinite(a.rate_) && std::isfinite(a.solo_rate_) && a.solo_rate_ > 0.0 &&
        a.rate_ < a.solo_rate_)
      iso_dt = dt * (a.rate_ / a.solo_rate_);
    rep.isolated[v] += iso_dt;
    const double contended_dt = dt - iso_dt;
    if (!(contended_dt > 0.0)) continue;
    // Bottleneck: the demanded resource with the highest utilization (a
    // zero-capacity resource carrying load counts as saturated); ties break
    // to the first demand in spec order, deterministically.
    const Resource* bottleneck = nullptr;
    double worst = -1.0;
    for (const auto& d : a.spec_.demands) {
      if (d.amount <= 0.0) continue;
      const Resource* r = d.resource;
      const double load = r->load();
      const double u = r->capacity_ > 0.0
                           ? load / r->capacity_
                           : (load > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
      if (u > worst) {
        worst = u;
        bottleneck = r;
      }
    }
    if (bottleneck == nullptr) {
      rep.contended[v][v] += contended_dt;  // rate-cap interactions only
      continue;
    }
    // Charge the delay to the classes loading the bottleneck, minus the
    // victim's own contribution, in proportion to their shares.
    const double* shares = &cl[bottleneck->index_ * kProfileClasses];
    double own = 0.0;
    if (a.rate_ > 0.0 && std::isfinite(a.rate_))
      for (const auto& d : a.spec_.demands)
        if (d.resource == bottleneck) own += a.rate_ * d.amount;
    double total = 0.0;
    double others[kProfileClasses];
    for (std::size_t c = 0; c < kProfileClasses; ++c) {
      double s = shares[c];
      if (c == v) s = std::max(0.0, s - own);
      others[c] = s;
      total += s;
    }
    if (total > 0.0) {
      for (std::size_t c = 0; c < kProfileClasses; ++c)
        if (others[c] > 0.0) rep.contended[v][c] += contended_dt * (others[c] / total);
    } else {
      // Nobody else loads the bottleneck (e.g. self-saturation of a
      // degraded resource): the class keeps its own delay.
      rep.contended[v][v] += contended_dt;
    }
  }
}

Time FlowModel::predicted_finish(const Activity& act) const {
  if (!std::isfinite(act.rate_)) return act.base_time_;  // unconstrained: done now
  if (act.rate_ <= 0.0) return kNever;  // stalled until some change point
  const double remaining = act.spec_.work - act.work_base_;
  if (remaining <= 0.0) return act.base_time_;
  return act.base_time_ + remaining / act.rate_;
}

ActivityPtr FlowModel::detach_running(Activity* act) {
  const std::size_t slot = act->run_slot_;
  ActivityPtr owned = std::move(running_[slot]);
  if (slot != running_.size() - 1) {
    running_[slot] = std::move(running_.back());
    running_[slot]->run_slot_ = slot;
  }
  running_.pop_back();
  act->run_slot_ = Activity::kNoSlot;
  return owned;
}

void FlowModel::reallocate() {
  advance();
  const Time now = engine_.now();

  // Harvest activities whose predicted completion instant has arrived.
  // Rates are constant between change points, so the prediction is exact:
  // no O(running) completion scan.  Same-instant completions are processed
  // in start order (seq), matching the insertion-ordered scan this replaces.
  harvest_.clear();
  while (!completion_heap_.empty() && completion_heap_.front()->predicted_finish_ <= now) {
    Activity* a = completion_heap_.front();
    heap_erase(a);
    harvest_.push_back(a);
  }
  if (harvest_.size() > 1)
    std::sort(harvest_.begin(), harvest_.end(),
              [](const Activity* a, const Activity* b) { return a->seq_ < b->seq_; });
  for (Activity* a : harvest_) {
    a->work_base_ = a->spec_.work;
    a->base_time_ = now;
    a->finished_at_ = now;
    a->rate_ = 0.0;
    if (a->flow_id_ != Activity::kNoSlot) {
      flow_act_[a->flow_id_] = nullptr;
      solver_.remove_flow(a->flow_id_);
      a->flow_id_ = Activity::kNoSlot;
    }
    ActivityPtr done = detach_running(a);
    trace_activity(*done, "");
    done->done_.set();
  }

  // Re-solve the dirty components (all of them on the reference path).
  // The solver lists the resources it solved only for a solve that
  // publishes them below.  The registry and the tracer are read at every
  // solve: either may turn on between change points.
  obs::Tracer& tracer = obs_reg_->tracer();
  const bool tracing = tracer.on();
  const bool obs_on = obs_reg_->enabled();
  const bool publish = obs_on || tracing;
  obs_resolves_->add(1);
  if (!incremental_) solver_.mark_all_dirty();
  if (obs_on) {
    auto wall0 = std::chrono::steady_clock::now();
    solver_.solve(publish);
    obs_solve_wall_us_->record(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - wall0)
            .count());
  } else {
    solver_.solve(publish);
  }
  const MaxMinSolver::Stats& st = solver_.stats();
  obs_resolves_full_->add(static_cast<double>(st.full_solves - last_full_solves_));
  obs_resolves_partial_->add(static_cast<double>(st.partial_solves - last_partial_solves_));
  obs_flow_visits_->add(static_cast<double>(st.flow_visits - last_flow_visits_));
  obs_components_solved_->add(
      static_cast<double>(st.components_solved - last_components_solved_));
  last_full_solves_ = st.full_solves;
  last_partial_solves_ = st.partial_solves;
  last_flow_visits_ = st.flow_visits;
  last_components_solved_ = st.components_solved;

  // Resources read their loads/pressures from the solver, which rewrote
  // those of the solved components; untouched resources keep theirs.  With
  // the registry or the tracer on, the solved resources also publish:
  // utilization/pressure gauges (feeding the time-resolved sampler), and
  // one counter-track point per resource whose load changed at this
  // re-solve (Perfetto renders these as step curves).
  if (publish) {
    if (!obs_bound_) bind_obs();
    for (std::size_t ridx : solver_.touched_resources()) {
      const Resource& r = resource(ridx);
      ResourceObs& ro = res_obs_[ridx];
      if (obs_on) {
        ro.util->set(r.utilization());
        ro.pressure->set(r.pressure());
      }
      const double load = r.load();
      if (tracing && load != ro.last_sampled_load) {
        tracer.counter_sample(ro.load_series, now, load);
        ro.last_sampled_load = load;
      }
    }
  }

  // Only activities whose rate actually changed get their progress
  // materialized and their completion prediction recomputed.
  for (MaxMinSolver::FlowId f : solver_.changed_flows()) {
    Activity* a = flow_act_[f];
    if (!a) continue;
    if (a->base_time_ != now) {
      double w = !std::isfinite(a->rate_)
                     ? a->spec_.work
                     : a->work_base_ + a->rate_ * (now - a->base_time_);
      a->work_base_ = w > a->spec_.work ? a->spec_.work : w;
      a->base_time_ = now;
    }
    a->rate_ = solver_.rate(f);
    heap_set(a, predicted_finish(*a));
  }

  // One engine timer at the earliest predicted completion.  retime() gives
  // the event a fresh FIFO sequence (identical ordering semantics to the
  // cancel-and-reschedule pattern it replaces) without abandoning a node.
  const Time next =
      completion_heap_.empty() ? kNever : completion_heap_.front()->predicted_finish_;
  if (next < kNever) {
    if (!engine_.retime(timer_, next))
      timer_ = engine_.call_at(next, [this] { reallocate(); });
  } else {
    timer_.cancel();
  }
}

// ---- completion heap --------------------------------------------------------

void FlowModel::heap_sift_up(std::size_t i) {
  Activity* a = completion_heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(a, completion_heap_[parent])) break;
    completion_heap_[i] = completion_heap_[parent];
    completion_heap_[i]->heap_pos_ = i;
    i = parent;
  }
  completion_heap_[i] = a;
  a->heap_pos_ = i;
}

void FlowModel::heap_sift_down(std::size_t i) {
  Activity* a = completion_heap_[i];
  const std::size_t n = completion_heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(completion_heap_[child + 1], completion_heap_[child]))
      ++child;
    if (!heap_before(completion_heap_[child], a)) break;
    completion_heap_[i] = completion_heap_[child];
    completion_heap_[i]->heap_pos_ = i;
    i = child;
  }
  completion_heap_[i] = a;
  a->heap_pos_ = i;
}

void FlowModel::heap_set(Activity* act, Time finish) {
  act->predicted_finish_ = finish;
  if (!(finish < kNever)) {  // stalled: no completion to schedule
    heap_erase(act);
    return;
  }
  if (act->heap_pos_ == Activity::kNoSlot) {
    act->heap_pos_ = completion_heap_.size();
    completion_heap_.push_back(act);
    heap_sift_up(act->heap_pos_);
  } else {
    heap_sift_up(act->heap_pos_);
    heap_sift_down(act->heap_pos_);
  }
}

void FlowModel::heap_erase(Activity* act) {
  const std::size_t i = act->heap_pos_;
  if (i == Activity::kNoSlot) return;
  act->heap_pos_ = Activity::kNoSlot;
  Activity* last = completion_heap_.back();
  completion_heap_.pop_back();
  if (last != act) {
    completion_heap_[i] = last;
    last->heap_pos_ = i;
    heap_sift_up(i);
    heap_sift_down(i);
  }
}

}  // namespace cci::sim
