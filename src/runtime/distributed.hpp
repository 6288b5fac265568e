// Multi-rank orchestration with failure detection (fault model, §robustness).
//
// DistributedRuntime owns one Runtime per rank of a World and runs the whole
// job to completion.  One failure-aware join serves every run: on the
// healthy path it awaits the ranks in order and dispatches exactly the
// simulated events a plain sequential join would.  With faults armed it
// adds:
//
//  * heartbeats: every rank isends a small liveness message to rank 0 at a
//    fixed interval; rank 0 tracks the last time it heard from each peer;
//  * failure detection: a peer silent for failure_timeout_factor intervals
//    is declared dead, with a diagnostic naming the rank and the silence;
//  * graceful degradation: the join aborts instead of hanging, surviving
//    ranks shut down cleanly, and run_to_completion() reports who died;
//  * abortable barriers: barrier() completes normally or aborts with the
//    failure diagnostic the moment a death is declared — never hangs.
//
// Worker-level deaths inside one rank (Runtime::fail_worker) are handled
// below this layer: tasks re-execute on surviving workers and the job still
// completes.  This layer handles whole-rank deaths (Runtime::halt).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mpi/collectives.hpp"
#include "runtime/runtime.hpp"

namespace cci::runtime {

struct DistributedOptions {
  /// Heartbeat period (s); 0 disables detection (legacy behaviour).
  double heartbeat_interval = 0.0;
  /// A rank is dead after this many silent heartbeat intervals.
  double failure_timeout_factor = 3.0;
  /// Tag namespace for heartbeat messages (kept away from app tags).
  int heartbeat_tag_base = 900000;
};

class DistributedRuntime {
 public:
  DistributedRuntime(mpi::World& world, const RuntimeConfig& config,
                     DistributedOptions options = {});

  [[nodiscard]] int ranks() const { return static_cast<int>(rt_.size()); }
  Runtime& runtime(int r) { return *rt_.at(static_cast<std::size_t>(r)); }
  mpi::World& world() { return world_; }
  sim::Engine& engine() { return world_.engine(); }

  /// Outcome of a run: completed == false means a rank died mid-job and the
  /// join aborted; `diagnostic` says who and why.
  struct Report {
    bool completed = true;
    int dead_rank = -1;
    std::string diagnostic;
    double makespan = 0.0;
  };

  /// Kill a whole rank at time `at`: its runtime halts (workers die, comm
  /// thread stops, no re-execution).  With heartbeats on, rank 0 notices
  /// the silence and declares the death; with them off the death is
  /// declared immediately at `at` (there is nothing to detect it with).
  void kill_rank(int r, double at);

  /// Start heartbeat senders/monitor/checker processes (idempotent; no-op
  /// when heartbeat_interval == 0).  run_to_completion() calls this.
  void start_heartbeats();

  /// Run every rank's task graph and the engine until the job finishes or a
  /// failure aborts it.
  Report run_to_completion();

  /// Abortable barrier: completes when the collective does, or as soon as a
  /// failure is declared (then `*aborted` is set).  Spawn one per rank.
  sim::Coro barrier(int rank, sim::OneShotEvent* done, bool* aborted = nullptr);

  /// Failure state, observable mid-run (the barrier and join consult it).
  [[nodiscard]] bool failed() const { return failure_->is_set(); }
  [[nodiscard]] int dead_rank() const { return dead_rank_; }
  [[nodiscard]] const std::string& diagnostic() const { return diagnostic_; }

 private:
  sim::Coro hb_sender(int r);
  sim::Coro hb_monitor(int r);
  sim::Coro hb_checker();
  sim::Coro failure_aware_join(std::vector<sim::OneShotEvent*> events);
  void declare_dead(int r, const std::string& why);

  mpi::World& world_;
  DistributedOptions opts_;
  std::vector<std::unique_ptr<Runtime>> rt_;
  mpi::Coll coll_;
  std::unique_ptr<sim::OneShotEvent> failure_;  ///< set on first declared death
  std::unique_ptr<sim::OneShotEvent> stop_;     ///< stops heartbeat processes
  std::vector<double> last_heard_;
  std::vector<bool> dead_;
  int dead_rank_ = -1;
  std::string diagnostic_;
  bool hb_started_ = false;
  /// Keeps barrier inner-completion events alive while collectives that
  /// will never finish (peer died) still reference them.
  std::vector<std::unique_ptr<sim::OneShotEvent>> barrier_events_;
};

}  // namespace cci::runtime
