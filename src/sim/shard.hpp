// Conservative-window parallel discrete-event simulation.
//
// A ShardGroup runs N independent sim::Engine instances — one per worker
// thread — over a scenario partitioned into *shards*.  The caller owns the
// carve: core::FabricLab::run_sharded maps topology groups to shards
// (sim::partition_groups over Topology::group_graph) and couples the
// shards' replicas of resources they share through boundary proxies
// (add_boundary_link).  Shard-local events run lock-free on the shard's
// own EventQueue, pools and obs registry; the only synchronisation is a
// barrier at conservative *window horizons*:
//
//     W = min over shards of (earliest pending event) + lookahead
//
// where `lookahead` is the minimum cross-shard coupling delay — for node
// groups separated by a fabric, the delay of the cheapest link class the
// carve cuts (Topology::min_cut_delay).  Every shard may process all
// events with t <= W; at the barrier the coordinator exchanges boundary
// capacities and runs the barrier probe in a fixed order, which makes
// multi-shard runs bitwise reproducible at a fixed shard count.
//
// Thread/memory discipline (this is what keeps the pooled hot path of
// sim/pool.hpp safe): each shard's Engine is constructed, run, and
// destroyed on its worker thread, with the shard's private obs::Registry
// installed as the thread's Registry::global() for the worker's whole
// lifetime.  Coroutine frames therefore live and die in the worker's
// thread-local FrameArena, and metric handles bind into the shard
// registry.  Build and tear down
// shard-owned scenario state (FlowModel, activities, processes) inside
// with_shard() or with_each_shard() for the same reason.
//
// Sampling follows the engine rule (sim/engine.hpp): when the thread that
// builds the group has an obs::RunSampling on, each worker installs one
// naming the shard's own TimelineStore before it builds its engine, and
// merge_obs() folds those stores into the builder's store.
//
// shards == 1 is special-cased to *no* parallel machinery at all: the one
// Engine is constructed inline on the caller's thread, with the caller's
// registry and ambient sampling, no worker, no barrier, no extra counters
// — byte-for-byte the serial engine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cci::sim {

class Resource;

class ShardGroup {
 public:
  struct Options {
    /// Number of shards, >= 1.
    int shards = 1;
    /// Minimum cross-shard coupling delay (window size).  kNever declares
    /// the scenario shard-closed: every shard runs to the horizon in a
    /// single window.  Must be > 0.
    Time lookahead = kNever;
  };

  explicit ShardGroup(Options opts);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;
  ~ShardGroup();

  [[nodiscard]] int shards() const { return n_; }

  /// Run `fn(engine)` on shard s's worker thread (inline on the caller's
  /// thread when shards() == 1) and wait for it.  All construction and
  /// destruction of shard-owned state — FlowModel, resources, spawned
  /// processes — must happen here so pooled frames and metric handles bind
  /// to the worker's thread-locals.  Exceptions propagate to the caller.
  void with_shard(int s, const std::function<void(Engine&)>& fn);

  /// Run `fn(s, engine)` on every shard's worker at once (inline on the
  /// caller's thread when shards() == 1) and wait for all of them: the
  /// parallel form of a with_shard() loop, for building or tearing down
  /// every shard's state.  Each job may touch only its own shard's state.
  /// Once every job has finished, the lowest-index shard's exception, if
  /// any, propagates to the caller.
  void with_each_shard(const std::function<void(int, Engine&)>& fn);

  /// Shard s's engine.  Safe to *read* from the coordinator between runs;
  /// mutate only from with_shard() (or freely when shards() == 1).
  [[nodiscard]] Engine& engine(int s) { return *shard_at(s).engine; }

  /// Conservative-window loop: repeatedly compute the horizon, run every
  /// shard up to it in parallel, and exchange boundary capacities at the
  /// barrier, until all queues drain or `until` is reached.  A SimStalled
  /// (or any exception) thrown inside a shard aborts the run after the
  /// window barrier and is rethrown in shard-index order — deterministic
  /// even when several shards trip in the same window.  Returns the
  /// maximum shard time.
  Time run(Time until = kNever);

  /// Fold every shard registry into `dst` (commutative merge_from) and
  /// reset the shard registries; skipped when `dst` is disabled.  When the
  /// group was built with sampling on, also append the shard timelines'
  /// rows not yet folded to the builder's store: merged by time, ties in
  /// shard order, each series renamed "shard<N>.<name>" (replica resources
  /// share names across shards).  No-op when shards() == 1 — metrics and
  /// samples already went to the caller's registry and store.
  void merge_obs(obs::Registry& dst);

  // ---- boundary proxies (cross-shard fabric) --------------------------------
  /// Register one cut fabric resource (global link, spine port) that flows
  /// on several shards share, by its uncontended capacity.  Each sharing
  /// shard models it with a local *proxy replica* in its own FlowModel,
  /// attached via bind_boundary(); replicas must start at `base_capacity`.
  /// At every window barrier the coordinator reads each replica's
  /// allocated load (workers are parked), computes a damped
  /// residual-capacity target
  ///     cap' = cap + 1/2 * ((base - other shards' load) - cap)
  /// clamped to a small positive floor, and delivers the update as an
  /// engine event at the barrier time — so Resource::set_capacity(), which
  /// may resume coroutines, runs on the owning worker in the next window.
  /// Staleness is bounded by one window (the lookahead), and links and
  /// replicas are visited in registration order, so multi-shard runs stay
  /// bitwise deterministic at a fixed shard count.  Returns the link id.
  int add_boundary_link(double base_capacity);
  /// Attach shard `shard`'s replica for boundary link `link`.  Call from
  /// the coordinator between with_shard() setup calls (never during run).
  void bind_boundary(int link, int shard, Resource* replica);
  [[nodiscard]] int boundary_links() const {
    return static_cast<int>(boundaries_.size());
  }

  /// Coordinator hook invoked after every window barrier (workers parked),
  /// with the barrier time: labs sample cross-shard peaks here.  Never
  /// called when shards() == 1 — the serial path has no barriers.
  void set_barrier_probe(std::function<void(Time)> probe) {
    barrier_probe_ = std::move(probe);
  }

  struct Stats {
    std::uint64_t windows = 0;    ///< synchronisation windows executed
    std::uint64_t exchanges = 0;  ///< boundary capacity updates delivered
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Shard {
    int index = 0;  ///< position in shards_; names the worker in diagnostics
    std::unique_ptr<obs::Registry> registry;
    /// The worker's ambient sampling: the builder's, with `timeline`
    /// pointing at the shard's own store when sampling is on.
    obs::RunSampling sampling;
    std::unique_ptr<obs::TimelineStore> timeline;  ///< appended to and freed on the worker
    std::uint64_t timeline_folded = 0;  ///< rows merge_obs() already appended
    std::unique_ptr<Engine> engine;  ///< built/destroyed on the worker
    std::thread thread;
    // Job slot: coordinator submits, worker executes, coordinator waits.
    std::mutex mutex;
    std::condition_variable cv;
    std::function<void()> job;
    std::exception_ptr error;
    bool busy = true;  ///< set until the worker finishes engine construction
    bool stop = false;
  };

  Shard& shard_at(int s);
  void stop_workers();
  void submit(Shard& sh, std::function<void()> job);
  void wait(Shard& sh);
  static void worker_main(Shard* shard);
  /// Clear every stored worker exception and rethrow the lowest shard
  /// index's, if any.
  void rethrow_any();
  /// Damped residual-capacity exchange over every boundary link; runs on
  /// the coordinator at the window barrier, posting set_capacity events at
  /// `barrier` into the replicas' engines.
  void exchange_boundaries(Time barrier);
  void publish_stats();
  /// merge_obs()'s timeline half: k-way merge of the unfolded shard rows.
  void fold_timelines();

  /// One cut fabric resource and its per-shard proxy replicas.
  struct Boundary {
    struct Replica {
      int shard = 0;
      Resource* res = nullptr;
      double cap = 0.0;  ///< capacity last delivered (coordinator's view)
    };
    double base = 0.0;
    std::vector<Replica> replicas;
  };

  Options opts_;
  int n_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Boundary> boundaries_;
  std::function<void(Time)> barrier_probe_;
  /// The builder's ambient store; set only for multi-shard sampling.
  obs::TimelineStore* timeline_ = nullptr;
  Stats stats_;
  Stats published_;  ///< counters already flushed to obs
  // sim.shard.* counters in the coordinator's registry; multi-shard only.
  obs::Counter* obs_windows_ = nullptr;
  obs::Counter* obs_exchanges_ = nullptr;
};

}  // namespace cci::sim
