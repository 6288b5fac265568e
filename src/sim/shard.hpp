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
// events with t <= W.
//
// run() hands each worker one job that loops over the windows.  Workers
// meet at an epoch barrier: the last to arrive does the barrier work —
// count the window, exchange boundary capacities, run the barrier probe,
// compute the next horizon, always in that order — then bumps the epoch
// and releases the others.  Waiters spin on the epoch for a bounded count
// (kBarrierSpins), then park on the group's condition variable; builds
// with schedule hooks skip the spin, so the explorer decides every wait.
// Whichever worker arrives last, the barrier work reads and writes the
// same state in the same order, which makes multi-shard runs bitwise
// reproducible at a fixed shard count.
//
// Thread/memory discipline (this is what keeps the pooled hot path of
// sim/pool.hpp safe): workers belong to the coordinating thread — the one
// that builds the group — not to the group.  Each coordinating thread owns
// a pool of shard workers, started on first use; worker i serves shard i
// of every multi-shard group the thread builds, and the pool joins them
// when the thread exits.  A group borrows the workers and leaves them
// parked, with their frame arenas, warm stores and malloc arenas warm, for
// the next group.  Each shard's Engine is constructed by the group's first
// job on its worker, run there, and destroyed by the group's last job, and
// every job installs the shard's private obs::Registry as the thread's
// Registry::global() and the shard's sampling for its own duration.
// Coroutine frames therefore live and die in the worker's thread-local
// FrameArena, and metric handles bind into the shard registry.  Build and
// tear down shard-owned scenario state (FlowModel, activities, processes)
// inside with_shard() or with_each_shard() for the same reason, and destroy
// a group on the thread that built it.
//
// Schedule exploration (-DCCI_SCHED=ON): a worker may have been started
// outside any sched::Session, so it joins the session once per group
// instead of once per life: the coordinator announces it before the
// group's first job, that job opens the worker's sched::ThreadScope, and
// the group's last job closes it while the coordinator waits for the
// thread to leave the session.
//
// Sampling follows the engine rule (sim/engine.hpp): when the thread that
// builds the group has an obs::RunSampling on, each shard's jobs install one
// naming the shard's own TimelineStore, and merge_obs() folds those stores
// into the builder's store.
//
// Shard health: when the registry the group was constructed under is on,
// each worker times its Engine::run calls and its barrier waits (total and
// longest), and run() publishes them there as
// host.shard.<s>.{busy_s,wait_s,longest_wait_s}.  They
// are host-clock values, so the sampler denies the host. prefix.  With the
// registry off no clock is read.
//
// shards == 1 is special-cased to *no* parallel machinery at all: the one
// Engine is constructed inline on the caller's thread, with the caller's
// registry and ambient sampling, no worker, no barrier, no extra counters
// — byte-for-byte the serial engine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
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

  /// Worker threads the calling thread's pool has started.  Worker i serves
  /// shard i of every multi-shard group the thread builds, so a group needs
  /// a new thread only for shards beyond every earlier group's count.
  [[nodiscard]] static int pooled_workers();

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
  /// (or any exception) thrown inside a shard still reaches the window
  /// barrier; the run ends after that window and the lowest-index shard's
  /// exception is rethrown — deterministic even when several shards trip
  /// in the same window.  Returns the maximum shard time.
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
  /// At every window barrier the last worker to arrive reads each
  /// replica's allocated load (the others wait), computes a damped
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

  /// Hook invoked at every window barrier, after the boundary exchange,
  /// with the barrier time: labs sample cross-shard peaks here.  It runs
  /// on the last worker to arrive while every other worker waits, so it
  /// may read any shard's state.  Never called when shards() == 1 — the
  /// serial path has no barriers.
  void set_barrier_probe(std::function<void(Time)> probe) {
    barrier_probe_ = std::move(probe);
  }

  struct Stats {
    std::uint64_t windows = 0;    ///< synchronisation windows executed
    std::uint64_t exchanges = 0;  ///< boundary capacity updates delivered
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Host time of one worker over a run (generic_thread style: a busy
  /// total, a wait total and the longest wait).  Clocks are read only when
  /// reg_ is on.
  struct Health {
    double busy_s = 0.0;          ///< inside Engine::run
    double wait_s = 0.0;          ///< parked or spinning at window barriers
    double longest_wait_s = 0.0;  ///< longest single barrier wait
  };

  /// A thread of the coordinating thread's pool (shard.cpp).
  class Worker;
  /// The calling thread's pool: worker i serves shard i of every group the
  /// thread builds.  Started on first use, joined when the thread exits.
  static std::vector<std::unique_ptr<Worker>>& pool();

  struct Shard {
    int index = 0;  ///< position in shards_; names the worker in diagnostics
    Worker* worker = nullptr;  ///< borrowed from the builder's pool
    std::unique_ptr<obs::Registry> registry;
    /// The jobs' ambient sampling: the builder's, with `timeline` pointing
    /// at the shard's own store when sampling is on.
    obs::RunSampling sampling;
    std::unique_ptr<obs::TimelineStore> timeline;  ///< appended to and freed on the worker
    std::uint64_t timeline_folded = 0;  ///< rows merge_obs() already appended
    std::unique_ptr<Engine> engine;  ///< built/destroyed on the worker
    /// The posted job's body, run by run_job() on the worker; its exception,
    /// if any, waits in `error` for the coordinator.
    std::function<void()> task;
    std::exception_ptr error;
    Health health;  ///< this run's, written by the worker only
  };

  Shard& shard_at(int s);
  /// Post `task` to shard sh's worker; the worker's wait() follows before
  /// the next.
  void submit(Shard& sh, std::function<void()> task);
  /// A posted job on the worker: `sh.task` under the shard's registry and
  /// sampling.
  static void run_job(Shard& sh);
  /// The group's last job on every worker: destroy the engines and
  /// timeline stores there and hand the workers back to the pool.
  void release_workers() noexcept;
  /// Clear every stored worker exception and rethrow the lowest shard
  /// index's, if any.
  void rethrow_any();
  /// run()'s job on one worker: run the engine to each window's horizon
  /// and meet the other workers at the barrier, until the run ends.
  /// Rethrows the shard's exception, if any, after its last window.
  void run_windows(Shard& sh);
  /// Arrive at the barrier closing window `epoch`: the last worker does
  /// close_window() and releases the others, the rest wait.
  void arrive(Shard& sh, std::uint64_t epoch, std::exception_ptr& error);
  /// Barrier work on the last worker to arrive, with every other worker
  /// waiting: count the window, exchange, probe, plan the next one.
  void close_window();
  /// Set horizon_ and final_window_ from the engines' pending events.
  void plan_window();
  /// Damped residual-capacity exchange over every boundary link; runs at
  /// the window barrier, posting set_capacity events at `barrier` into the
  /// replicas' engines.
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
  /// Registry::global() at construction: sim.shard.* counters and
  /// host.shard.* health; multi-shard only.
  obs::Registry* reg_ = nullptr;
  obs::Counter* obs_windows_ = nullptr;
  obs::Counter* obs_exchanges_ = nullptr;

  // ---- window barrier (run()) ----------------------------------------------
  // Plain fields are written by the coordinator before the run's jobs are
  // submitted, or by the last worker to arrive before it bumps epoch_; every
  // worker reads them only after it has seen the new epoch.
  std::atomic<int> arrived_{0};          ///< workers at the current barrier
  std::atomic<std::uint64_t> epoch_{0};  ///< windows closed, ever
  std::atomic<bool> failed_{false};      ///< a shard threw in this window
  std::mutex barrier_mutex_;             ///< parks waiters on barrier_cv_
  std::condition_variable barrier_cv_;
  Time until_ = kNever;        ///< run()'s horizon
  Time horizon_ = 0.0;         ///< the current window's
  bool final_window_ = false;  ///< the current window advances to until_
  bool done_ = false;          ///< no window follows the current one
  bool timed_ = false;         ///< record Health (the registry is on)
};

}  // namespace cci::sim
