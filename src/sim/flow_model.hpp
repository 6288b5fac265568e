// FlowModel: drives all fluid activities over shared resources.
//
// The model keeps the set of running activities; whenever the set or any
// resource capacity changes it (1) harvests activities whose predicted
// completion instant has arrived, (2) re-solves the weighted bottleneck
// max-min allocation *incrementally* — only the resource components touched
// by the change are re-run; rates and loads elsewhere carry over verbatim —
// and (3) retimes one engine timer to the earliest predicted completion.
// Between change points all rates are constant, so progress is exactly
// linear — the classic fluid-flow DES.  A touched component is re-solved
// by replaying its previous progressive filling where the change leaves
// each round's lambda in place (see sim/maxmin.hpp), so a change point
// costs work in proportion to the change rather than to the component;
// every rate and load is bitwise what a full filling gives.
//
// Building a model costs only what its runs use.  Resources live in place,
// in fixed-size chunks with stable addresses, and keep their registration
// order; the chunks and the solver's per-resource arrays come from the
// thread's WarmStore and go back to it at teardown.  A resource's name is
// formatted on demand by its owner (sim/resource.hpp); obs handles and
// series names exist only once the model binds obs.  A capacity change
// while nothing runs and neither the registry nor the tracer is on cannot
// harvest, solve, publish or retime anything: it only records the
// capacity, and the next change point solves the component.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/activity.hpp"
#include "sim/attribution.hpp"
#include "sim/engine.hpp"
#include "sim/maxmin.hpp"
#include "sim/pool.hpp"
#include "sim/resource.hpp"

namespace cci::sim {

class FlowModel {
 public:
  explicit FlowModel(Engine& engine);
  ~FlowModel();
  FlowModel(const FlowModel&) = delete;
  FlowModel& operator=(const FlowModel&) = delete;

  Engine& engine() { return engine_; }

  /// Create a resource owned by this model, named `name` (kept in the
  /// model's own name table).  Pointers remain valid for the model's
  /// lifetime.
  Resource* add_resource(std::string name, double capacity);
  /// Create a resource whose name `owner` formats on demand from `key`;
  /// `owner` must outlive every name() call on it.
  Resource* add_resource(const ResourceNamer& owner, std::uint32_t key, double capacity);

  /// Start an activity; it completes after spec.work units of progress.
  /// The returned pointer stays valid at least until completion.
  ActivityPtr start(ActivitySpec spec);

  /// Abort a running activity; its completion event is NOT set.  O(1).
  void cancel(const ActivityPtr& activity);

  /// Toggle connected-component partial re-solves and replays (on by
  /// default).  Off forces the from-scratch reference path — every
  /// component filled in full at every solve; useful for A/B determinism
  /// checks.
  void set_incremental(bool on) { incremental_ = on; }
  [[nodiscard]] bool incremental() const { return incremental_; }

  /// Read-only view of the underlying solver (perf counters for benches).
  [[nodiscard]] const MaxMinSolver& solver() const { return solver_; }

  /// Call `visit(index)` once with the Resource::index() of every resource
  /// whose load changed since the previous drain: all a sampler must
  /// re-read to have seen every load this model published.  The first
  /// drain visits every resource; a model that is never drained keeps no
  /// change-tracking state.
  template <typename Visit>
  void drain_load_changes(Visit&& visit) {
    solver_.drain_load_changes(std::forward<Visit>(visit));
  }

  /// Attach (or detach, with nullptr) an interference profiler.  While
  /// attached, every change-point interval is decomposed exactly into
  /// isolated-equivalent time and contention delay per activity class (see
  /// sim/attribution.hpp for the model).  Attaching mid-run is safe: the
  /// open interval is closed under the previous attachment state first.
  /// Costs O(running activities x demands) per change point when attached,
  /// strictly zero extra work when detached.
  void set_profiler(InterferenceProfiler* profiler);
  [[nodiscard]] InterferenceProfiler* profiler() const { return profiler_; }

 private:
  friend class Resource;
  void on_capacity_changed(Resource* resource);
  /// Accumulate the per-resource work-unit integrals up to engine_.now()
  /// (loads are constant since the last change point, so load * dt is
  /// exact).  Activity progress itself is lazy — see Activity::work_done().
  void advance();
  /// Harvest due completions, re-solve dirty components, retime the timer.
  void reallocate();

  /// Attribution bookkeeping for the closed interval [now - dt, now]
  /// (profiler attached, dt > 0): split each running activity's dt into
  /// isolated vs contended time and charge the contended share to the
  /// classes loading its bottleneck resource.
  void profile_advance(Time dt);
  /// Recompute an activity's isolated rate min(rate_cap, cap_j / demand_j)
  /// from current capacities (profiler attached only).
  void refresh_solo_rate(Activity& act) const;

  /// Completion instant implied by the current rate; kNever while stalled.
  [[nodiscard]] Time predicted_finish(const Activity& act) const;

  /// Remove `act` from running_ (swap-erase, O(1)); returns the owning ptr.
  ActivityPtr detach_running(Activity* act);

  // ---- completion heap: running activities with a finite predicted finish,
  // ordered by (predicted_finish_, seq_).  Positions live in the Activity so
  // a rate change updates one entry in O(log n) instead of rescanning all.
  [[nodiscard]] bool heap_before(const Activity* a, const Activity* b) const {
    if (a->predicted_finish_ != b->predicted_finish_)
      return a->predicted_finish_ < b->predicted_finish_;
    return a->seq_ < b->seq_;
  }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  void heap_set(Activity* act, Time finish);  ///< insert/update/remove
  void heap_erase(Activity* act);

  /// Completed/cancelled activities become tracer spans on the track of
  /// their first demanded resource.
  void trace_activity(const Activity& act, const char* suffix);

  /// Resolve `r`'s `sim.resource.<name>.*` handles and series names in
  /// obs_reg_.  Runs at add_resource() once the model is bound; an unbound
  /// model defers every resource to bind_obs().
  void bind_resource_obs(const Resource& r);
  /// Late binding: the first advance()/reallocate()/trace_activity() that
  /// finds the registry or the tracer on binds every resource at once.
  void bind_obs();

  [[nodiscard]] Resource& resource(std::size_t index) {
    return *std::launder(reinterpret_cast<Resource*>(
        &chunks_.chunks[index / Chunks::kPerChunk][index % Chunks::kPerChunk]));
  }

  /// Resource storage: chunks of kPerChunk in-place resources, so
  /// addresses stay stable as the table grows.  Taken from the thread's
  /// WarmStore at construction and handed back at teardown (resources are
  /// trivially destructible, so a chunk's old bytes are simply reused).
  struct Chunks {
    static constexpr std::size_t kPerChunk = 1024;
    struct alignas(Resource) Cell {
      std::byte bytes[sizeof(Resource)];
    };
    std::vector<std::unique_ptr<Cell[]>> chunks;
    std::size_t size = 0;  ///< resources placed
    void clear() { size = 0; }
    [[nodiscard]] std::size_t capacity() const { return chunks.size(); }
  };
  /// Names of the resources added by name: the owner of every such
  /// resource, keyed by its place in `names`.
  struct NameTable final : ResourceNamer {
    std::vector<std::string> names;
    [[nodiscard]] std::string resource_name(std::uint32_t key) const override {
      return names[key];
    }
  };
  /// A resource's obs handles and cached series names (the load counter
  /// track and the span track), so tracing never concatenates on the hot
  /// path.
  struct ResourceObs {
    obs::Counter* work = nullptr;       ///< sim.resource.<name>.work_units
    obs::Gauge* util = nullptr;         ///< sim.resource.<name>.utilization
    obs::Gauge* pressure = nullptr;     ///< sim.resource.<name>.pressure
    std::string load_series;
    std::string track_series;
    double last_sampled_load = -1.0;
  };

  Engine& engine_;
  MaxMinSolver solver_;
  SlabPool<Activity> activity_pool_;  ///< stats: sim.pool.activity.*
  Chunks chunks_;
  NameTable names_;
  /// Per resource, in index order, once the model is bound; empty before.
  std::vector<ResourceObs> res_obs_;
  std::vector<ActivityPtr> running_;       ///< unordered; slot in Activity
  std::vector<Activity*> flow_act_;        ///< solver FlowId -> activity
  std::vector<Activity*> completion_heap_;
  std::vector<Activity*> harvest_;         ///< scratch, reused
  std::vector<MaxMinFlow::Entry> entries_scratch_;
  EventQueue::Handle timer_;
  Time last_advance_ = 0.0;
  std::uint64_t next_activity_seq_ = 0;
  bool incremental_ = true;
  InterferenceProfiler* profiler_ = nullptr;

  obs::Registry* obs_reg_;
  /// Per-resource handles resolved: set at construction when obs_reg_ is
  /// enabled, otherwise at the first use that can read them.  A disabled
  /// registry never sees the model's per-resource names.
  bool obs_bound_ = false;
  obs::Counter* obs_resolves_;
  obs::Counter* obs_resolves_full_;
  obs::Counter* obs_resolves_partial_;
  obs::Counter* obs_flow_visits_;
  obs::Counter* obs_components_solved_;
  obs::Counter* obs_started_;
  obs::Histogram* obs_solve_wall_us_;
  // Solver-stat baselines so counters receive per-solve deltas.
  std::uint64_t last_full_solves_ = 0;
  std::uint64_t last_partial_solves_ = 0;
  std::uint64_t last_flow_visits_ = 0;
  std::uint64_t last_components_solved_ = 0;
};

}  // namespace cci::sim
