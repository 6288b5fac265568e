// Mini task-based runtime (StarPU-like, §5).
//
// Per rank: a scheduler list, worker threads bound one-per-core, one
// reserved main core and one reserved communication core (StarPU's default
// resource split).  Modelled mechanisms, each traceable to a paper section:
//
//  * software-stack overhead on the message path (§5.2): submit -> worker
//    -> communication thread hops, one fixed cost per machine;
//  * worker busy-polling with exponential backoff (§5.4): idle workers
//    hammer the shared task list.  Two effects: steady coherence traffic
//    on the NUMA node holding the list (a standing flow whose rate follows
//    the backoff period) and lock contention that delays the comm thread's
//    progression (added to the world's progress overhead).  Both scale
//    with the number of polling workers and vanish when workers are paused;
//  * task execution: roofline-coupled activities on worker cores, with
//    memory-stall accounting (the pmu-tools counter of Fig. 10).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/workload.hpp"
#include "mpi/world.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/sync.hpp"

namespace cci::runtime {

struct RuntimeConfig {
  /// Worker count; -1 = all cores minus the reserved main + comm cores.
  int workers = -1;
  /// Exponential-backoff polling bounds, in nop instructions (§5.4: the
  /// default maximum is 32; "huge" 10000 approximates paused workers).
  int backoff_min_nops = 1;
  int backoff_max_nops = 32;
  bool workers_paused = false;
  /// NUMA node holding the scheduler list.
  int list_numa = 0;
  /// Cache-line bytes a poll moves on the list's NUMA node (DRAM-visible
  /// coherence share of the poll; most polls stay in LLC).
  double poll_dram_bytes = 8.0;
  /// Extra cycles per poll beyond the nops (lock + list inspection).
  double poll_cost_cycles = 40.0;
  /// One-way runtime software-stack overhead added to each message (§5.2:
  /// +38 us on henri, +23 us on billy, +45 us on pyxis).
  double message_overhead = 38e-6;
  /// Future-work feature from the paper's conclusion: schedule tasks to
  /// workers whose core shares the task data's NUMA node, minimising
  /// cross-node traffic.  Off = plain FIFO (StarPU eager-like).
  bool numa_aware_scheduling = false;
  /// Comm-thread delay per message per polling worker at full polling rate
  /// (lock contention).  Zero on machines whose locking showed no effect
  /// (§5.4: billy, pyxis).
  double lock_delay_per_worker = 60e-9;

  static RuntimeConfig for_machine(const std::string& machine_name);
};

/// What a task runs: kernel traits plus the amount of work.
struct Codelet {
  std::string name;
  hw::KernelTraits traits;
  double iters = 0.0;
};

class Runtime;

/// Node of the per-rank task DAG.  Build with Runtime::add_task /
/// add_send / add_recv, connect with add_dependency, then run().
class Task {
 public:
  enum class Kind { kCompute, kSend, kRecv };

 private:
  friend class Runtime;
  Kind kind = Kind::kCompute;
  Codelet codelet;
  int data_numa = 0;
  // Communication tasks:
  int peer = -1;
  int tag = 0;
  mpi::MsgView msg;
  // Dependencies:
  int pending = 0;
  std::vector<Task*> successors;
  bool queued = false;
};

class Runtime {
 public:
  Runtime(mpi::World& world, int rank, RuntimeConfig config);
  ~Runtime();

  [[nodiscard]] int rank() const { return rank_; }
  mpi::World& world() { return world_; }
  sim::Engine& engine() { return world_.engine(); }
  [[nodiscard]] int worker_count() const { return static_cast<int>(worker_cores_.size()); }
  [[nodiscard]] const std::vector<int>& worker_cores() const { return worker_cores_; }
  const RuntimeConfig& config() const { return config_; }

  // ---- graph construction -------------------------------------------------
  Task* add_task(Codelet codelet, int data_numa);
  Task* add_send(int peer, int tag, mpi::MsgView msg);
  Task* add_recv(int peer, int tag, mpi::MsgView msg);
  /// `after` cannot start until `before` completed.
  static void add_dependency(Task* before, Task* after);

  // ---- execution ------------------------------------------------------------
  /// Start workers + comm thread and release all ready tasks; the returned
  /// event fires when every submitted task has completed.
  sim::OneShotEvent& run();
  /// Graphless mode for §5.4: start the workers so they poll, without any
  /// tasks.  Use world-level ping-pongs to measure the latency impact.
  void start_workers_idle();
  /// Stop workers after the current graph drained (paused-workers mode
  /// simply never starts them).
  void shutdown();

  // ---- failover (fault model) -----------------------------------------------
  /// Opt into worker-death handling: running tasks are executed under an
  /// abortable wait so fail_worker() can reclaim them.  Off by default —
  /// the unarmed hot path is bitwise-identical to the pre-failover runtime.
  void arm_failover() { failover_armed_ = true; }
  /// Kill one worker: cancel its running task (re-enqueued for another
  /// worker), wake it if idle, and keep it out of scheduling forever.
  void fail_worker(std::size_t slot);
  /// Schedule a worker death at an absolute simulation time (arms failover).
  void kill_worker_at(int worker, double at);
  /// Whole-rank death: every worker fails, the comm thread stops, orphaned
  /// tasks are NOT re-executed (the rank is gone, not degraded).
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }
  /// Tasks reclaimed from dead workers and run again elsewhere.
  [[nodiscard]] int tasks_reexecuted() const { return reexecuted_; }

  // ---- §5.2 message path -----------------------------------------------------
  /// One-way runtime overhead currently in effect for this rank's messages
  /// (software stack + polling lock contention).
  [[nodiscard]] double message_overhead() const;

  // ---- metrics ---------------------------------------------------------------
  [[nodiscard]] double mem_stall_fraction() const {
    return stall_samples_ > 0 ? stall_sum_ / static_cast<double>(stall_samples_) : 0.0;
  }
  [[nodiscard]] int tasks_completed() const { return completed_; }
  /// Per-task execution record (Gantt data), collected when tracing is on.
  struct ExecRecord {
    std::string name;
    int core;
    int data_numa;
    double start;
    double end;
  };
  void enable_execution_trace(bool on) { trace_enabled_ = on; }
  [[nodiscard]] const std::vector<ExecRecord>& execution_trace() const { return exec_trace_; }

  /// Fraction of compute tasks that ran on a core of a different NUMA node
  /// than their data (the traffic the NUMA-aware scheduler removes).
  [[nodiscard]] double remote_task_fraction() const {
    return compute_executed_ > 0
               ? static_cast<double>(remote_executed_) / static_cast<double>(compute_executed_)
               : 0.0;
  }

 private:
  sim::Coro worker_loop(std::size_t slot);
  sim::Coro comm_loop();
  void enqueue(Task* task);
  void on_task_done(Task* task);
  /// Queue index a compute task lands in (per-NUMA when numa-aware).
  [[nodiscard]] std::size_t queue_of(const Task* task) const;
  /// Pop the best queued task for a worker (locality first when
  /// numa-aware, FIFO otherwise); nullptr if none.
  Task* pop_for(std::size_t slot);
  /// Steady-state polling period (s) for the current backoff setting.
  [[nodiscard]] double poll_period() const;
  /// Re-derive the standing polling-pressure flow and the comm thread's
  /// lock-contention overhead from the number of currently polling workers.
  void update_polling_pressure();

  mpi::World& world_;
  int rank_;
  RuntimeConfig config_;
  hw::Machine& machine_;
  std::vector<int> worker_cores_;
  int main_core_;

  /// Put a reclaimed task back on the ready queue (counts as re-execution).
  void reexecute(Task* task);

  std::vector<std::unique_ptr<Task>> tasks_;
  /// Per-worker hand-off boxes (idle workers block here).
  struct WorkerSlot {
    int core = -1;
    std::unique_ptr<sim::Mailbox<Task*>> box;
    bool idle = false;
    // Failover state: a dead worker never schedules again; `current` marks
    // the task it holds (for reclamation), `abort` wakes an armed wait.
    bool dead = false;
    Task* current = nullptr;
    sim::ActivityPtr running_act;
    std::unique_ptr<sim::OneShotEvent> abort;
  };
  std::vector<WorkerSlot> slots_;
  /// Ready queues: one per NUMA node when numa-aware, else a single FIFO.
  std::vector<std::deque<Task*>> queues_;
  std::deque<std::size_t> idle_order_;  ///< FIFO of idle worker slots
  std::unique_ptr<sim::Mailbox<Task*>> comm_box_;
  std::unique_ptr<sim::OneShotEvent> all_done_;
  int completed_ = 0;
  int submitted_ = 0;
  bool started_ = false;
  bool shutdown_ = false;
  bool failover_armed_ = false;
  bool halted_ = false;
  int reexecuted_ = 0;

  int polling_workers_ = 0;
  sim::ActivityPtr polling_flow_;

  double stall_sum_ = 0.0;
  int stall_samples_ = 0;
  int compute_executed_ = 0;
  int remote_executed_ = 0;
  bool trace_enabled_ = false;
  std::vector<ExecRecord> exec_trace_;

  // Observability: worker/task/comm metrics plus tracer tracks (one per
  // worker core, one for the comm thread).  Counters aggregate over ranks;
  // gauges and counter-sample series are per rank.
  obs::Registry* obs_reg_ = nullptr;
  obs::Counter* obs_tasks_done_ = nullptr;
  obs::Counter* obs_msgs_ = nullptr;
  obs::Counter* obs_polls_ = nullptr;
  obs::Counter* obs_idle_transitions_ = nullptr;
  obs::Counter* obs_reexec_ = nullptr;
  obs::Gauge* obs_polling_workers_ = nullptr;
  obs::Gauge* obs_lock_delay_ = nullptr;
  obs::Histogram* obs_task_dur_ = nullptr;
  std::vector<obs::TrackId> obs_core_tracks_;
  obs::TrackId obs_comm_track_ = 0;
  obs::TrackId obs_pollers_track_ = 0;
  std::string obs_pollers_series_;
  /// Poll-count time integral: polls = sum over intervals of
  /// (workers polling) * dt / poll_period.
  double obs_polls_last_change_ = 0.0;
  int obs_prev_polling_workers_ = 0;
};

}  // namespace cci::runtime
