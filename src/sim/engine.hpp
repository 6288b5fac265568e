// The discrete-event simulation engine.
//
// The engine owns the virtual clock and the event queue; everything else in
// the simulator (flows, machines, networks, runtimes) schedules callbacks or
// suspends coroutine processes on it.  Determinism: events at equal times
// run in scheduling order, and nothing in the engine consults wall-clock
// time or global RNG state.
//
// Dispatch: process wake-ups (spawn, sleep/sleep_until/yield, resume_soon)
// queue the bare coroutine handle, not a std::function wrapping it; only
// call_at/call_in carry a callback.  run() prunes the queue once per event
// through EventQueue::peek() + pop().  run(until) stops at the horizon
// without ever moving the clock backwards.
//
// In-place wake-ups: most sleeps are already the earliest pending event,
// so queueing one would push it onto the heap only for run() to pop it
// straight back.  A sleep/yield runs in place instead — the coroutine
// continues without suspending — when it comes from the coroutine run()
// is resuming right now, is due at or before the run() horizon, and is
// strictly earlier than the queue's top entry (live or cancelled).  The
// engine then does the run loop's per-event bookkeeping itself: sampler,
// clock, dispatch counters and the heap-depth sample.  This cannot reorder
// events: a fresh entry would carry the largest sequence number, so it
// pops next exactly when its time is below the top entry's.  While a
// watchdog is armed every wake-up goes through the queue, so run() does
// all the counting and SimStalled is still thrown from run(), never from
// inside a process.
//
// Processes finish through their final suspend, which unlinks and destroys
// the frame; there is no completion record to join.  A parent that waits
// for a child passes it a OneShotEvent (sim/sync.hpp) to set.
//
// Memory: the engine also owns the combinator wait-node pool and the symbol
// table that interns activity/resource labels to 4-byte ids.  Pool stats
// are published through obs when a run() drains: `sim.pool.*` for the
// engine's own pools, `host.pool.frames.*` for the thread's frame arena.
//
// Sampling: an engine built while its thread's obs::RunSampling is on owns
// an obs::Sampler into that store, on Registry::global() of the building
// thread (obs/sampler.hpp).  It is the only way a simulation is sampled,
// so every engine of a campaign point appends its own timeline segment.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/label.hpp"
#include "sim/pool.hpp"
#include "sim/stall.hpp"
#include "sim/time.hpp"

namespace cci::sim {

class Engine {
 public:
  Engine() : wait_pool_("wait_node") {
    obs::Registry& reg = obs::Registry::global();
    obs_events_ = &reg.counter("sim.engine.events_dispatched");
    obs_spawns_ = &reg.counter("sim.engine.processes_spawned");
    obs_heap_depth_ = &reg.histogram("sim.engine.heap_depth");
    obs_watchdog_trips_ = &reg.counter("sim.watchdog_trips");
    register_pool(&wait_pool_);
    // Host-scoped: the arena outlives the engine and stays warm across the
    // thread's engines, so its counts depend on what the thread ran before.
    register_pool(&FrameArena::local(), "host");
    if (const obs::RunSampling& rs = obs::run_sampling(); rs.sampling_on()) {
      obs::SamplerConfig sc;
      sc.period = rs.timeline_period;
      sampler_ = std::make_unique<obs::Sampler>(reg, *rs.timeline, std::move(sc));
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    // Destroy frames of processes that never ran to completion (e.g. servers
    // still blocked on a mailbox when the simulation ended).  The list is
    // intrusive through the promises, so destruction unlinks as it goes.
    while (live_head_ != nullptr) {
      Coro::promise_type* p = live_head_;
      live_head_ = p->live_next;
      std::coroutine_handle<Coro::promise_type>::from_promise(*p).destroy();
    }
  }

  /// Current simulated time in seconds.
  [[nodiscard]] Time now() const { return now_; }

  /// Time of the earliest pending event, or kNever if the queue is empty.
  /// The shard scheduler uses this to compute conservative window horizons.
  [[nodiscard]] Time next_event_time() const {
    Time t = kNever;
    return queue_.peek(t) ? t : kNever;
  }

  /// Schedule a plain callback at absolute time `t` (>= now()).
  EventQueue::Handle call_at(Time t, EventQueue::Callback fn) {
    assert(t >= now_ - kTimeEpsilon);
    return queue_.schedule(t, std::move(fn));
  }
  /// Schedule a plain callback `dt` seconds from now.
  EventQueue::Handle call_in(Time dt, EventQueue::Callback fn) {
    return call_at(now_ + dt, std::move(fn));
  }

  /// Move a still-pending callback to time `t` (fresh FIFO sequence, same
  /// ordering semantics as cancel + call_at, but without abandoning a heap
  /// node).  Returns false if the handle already fired or was cancelled —
  /// the caller must then call_at() a fresh event.
  bool retime(const EventQueue::Handle& h, Time t) {
    assert(t >= now_ - kTimeEpsilon);
    return queue_.retime(h, t);
  }

  /// Spawn a process: the coroutine starts from the event loop at the
  /// current time (or at `start_at` if given).
  void spawn(Coro coro, Time start_at = -1.0) {
    auto h = coro.release();
    Coro::promise_type& p = h.promise();
    p.engine = this;
    resume_at(start_at < 0 ? now_ : start_at, h);
    obs_spawns_->add(1);
    ++live_processes_;
    p.live_prev = nullptr;
    p.live_next = live_head_;
    if (live_head_ != nullptr) live_head_->live_prev = &p;
    live_head_ = &p;
  }

  /// Opt into watchdog limits for subsequent run() calls.  When a limit is
  /// hit, run() throws SimStalled (never from inside a process).
  void set_watchdog(WatchdogConfig config) { watchdog_ = config; }
  [[nodiscard]] const WatchdogConfig& watchdog() const { return watchdog_; }

  /// The sampler this engine owns (nullptr when it was built with the
  /// ambient sampling off).  run() advances it *before* dispatching each
  /// event, so a sample at tick T reflects exactly the events strictly
  /// before T — independent of how events happen to batch within a run()
  /// call.  No coroutine is involved, so the sampler never keeps the queue
  /// alive and run() still drains naturally.
  [[nodiscard]] obs::Sampler* sampler() const { return sampler_.get(); }

  /// Register a callback that appends human-readable descriptions of
  /// currently-blocked work (stalled activities, pending receives, ...) to a
  /// SimStalled report.  The registrant must outlive every run() call — in
  /// practice inspectors are registered by objects (FlowModel, World) that
  /// live as long as the engine they drive.
  using StallInspector = std::function<void(std::vector<std::string>&)>;
  void add_stall_inspector(StallInspector fn) {
    stall_inspectors_.push_back(std::move(fn));
  }

  /// Run until the event queue drains or the optional horizon is reached.
  /// Stopping at a horizon advances the clock to it, but a horizon already
  /// in the past leaves the clock where it is.  Returns the final simulated
  /// time.
  Time run(Time until = kNever) {
    const bool guarded = watchdog_.any();
    until_ = until;
    guarded_ = guarded;
    std::uint64_t run_events = 0;
    std::uint64_t instant_events = 0;
    Time instant = now_;
    Time t = kNever;
    while (queue_.peek(t)) {
      if (t > until) {
        now_ = std::max(now_, until);
        if (sampler_ != nullptr) sampler_->advance_to(now_);
        publish_pool_stats();
        return now_;
      }
      if (sampler_ != nullptr) sampler_->advance_to(t);
      if (guarded) {
        if (t > instant + kTimeEpsilon) {
          instant = t;
          instant_events = 0;
        }
        if (watchdog_.max_events != 0 && run_events >= watchdog_.max_events) {
          now_ = std::max(now_, t);
          trip(StallReason::kEventBudget, run_events);
        }
        if (watchdog_.max_events_per_instant != 0 &&
            instant_events >= watchdog_.max_events_per_instant) {
          now_ = std::max(now_, t);
          trip(StallReason::kNoProgress, run_events);
        }
        ++run_events;
        ++instant_events;
        // Piggyback the O(n) queue-invariant audit on the watchdog: cheap
        // enough amortized (every 4096 events), and it catches live_size()
        // drift — e.g. a compaction path forgetting n_cancelled_ — long
        // before it would surface as a bogus stall report.
        if ((run_events & 4095u) == 0) queue_.check_live_size();
      }
      EventQueue::Event ev = queue_.pop();
      note_dispatch(ev.time);
      running_ = ev.resume;
      ev.run();
      running_ = nullptr;
    }
    if (guarded && watchdog_.report_blocked_on_drain && live_processes_ > 0)
      trip(StallReason::kBlockedProcesses, run_events);
    if (sampler_ != nullptr) sampler_->advance_to(now_);
    publish_pool_stats();
    return now_;
  }

  /// Number of spawned processes that have not yet terminated.
  [[nodiscard]] int live_processes() const { return live_processes_; }

  /// Raw events dispatched over this engine's lifetime (bench throughput
  /// denominator; independent of the obs enabled flag).  Includes the
  /// wake-ups run in place.
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }
  /// The subset of events_dispatched() that ran in place, never touching
  /// the queue.
  [[nodiscard]] std::uint64_t events_in_place() const { return events_in_place_; }

  // ---- labels -----------------------------------------------------------

  /// Intern a label; ids are stable for the engine's lifetime.
  LabelId intern(std::string_view text) { return symbols_.intern(text); }
  /// Text of an interned label ("" for kNoLabel).
  [[nodiscard]] const std::string& label_str(LabelId id) const {
    return symbols_.str(id);
  }

  // ---- pools ------------------------------------------------------------

  /// Pooled wait node for the when_any/when_all combinators.
  RcPtr<WaitNode> make_wait_node() { return wait_pool_.make(); }

  /// Track a pool's stats: published as `<scope>.pool.<name>.*` when run()
  /// drains.  Registrants (e.g. a FlowModel's activity pool) must
  /// unregister before they die.
  void register_pool(PoolBase* pool, const char* scope = "sim") {
    PoolChannel ch;
    ch.pool = pool;
    char name[96];
    auto bind = [&](const char* field) -> obs::Counter* {
      std::snprintf(name, sizeof name, "%s.pool.%s.%s", scope, pool->name(), field);
      return &obs::Registry::global().counter(name);
    };
    ch.allocated = bind("allocated");
    ch.reused = bind("reused");
    ch.slabs = bind("slabs");
    ch.slab_bytes = bind("slab_bytes");
    std::snprintf(name, sizeof name, "%s.pool.%s.live", scope, pool->name());
    ch.live = &obs::Registry::global().gauge(name);
    pool_channels_.push_back(ch);
  }
  void unregister_pool(PoolBase* pool) {
    for (std::size_t i = 0; i < pool_channels_.size(); ++i) {
      if (pool_channels_[i].pool == pool) {
        pool_channels_.erase(pool_channels_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  // ---- awaitables -------------------------------------------------------

  /// `co_await engine.sleep(dt)` — suspend the calling process for `dt`
  /// simulated seconds.
  auto sleep(Time dt) { return SleepAwaiter{this, now_ + dt}; }
  /// `co_await engine.sleep_until(t)` — suspend until absolute time `t`.
  auto sleep_until(Time t) { return SleepAwaiter{this, t}; }
  /// `co_await engine.yield()` — reschedule at the current time, after all
  /// events already queued for this instant.
  auto yield() { return SleepAwaiter{this, now_}; }

  struct SleepAwaiter {
    Engine* engine;
    Time wake_at;
    bool await_ready() const noexcept { return false; }
    /// False (continue without suspending) when the wake-up ran in place.
    bool await_suspend(std::coroutine_handle<> h) {
      if (engine->dispatch_in_place(wake_at, h)) return false;
      engine->resume_at(wake_at, h);
      return true;
    }
    void await_resume() const noexcept {}
  };

  /// Resume a suspended coroutine from the event loop at the current time.
  /// Used by synchronisation primitives so wake-ups are serialized through
  /// the queue instead of nesting resumes.
  void resume_soon(std::coroutine_handle<> h) { resume_at(now_, h); }

 private:
  /// Queue a bare resume of `h` at absolute time `t` (>= now()).
  void resume_at(Time t, std::coroutine_handle<> h) {
    assert(t >= now_ - kTimeEpsilon);
    queue_.schedule_resume(t, h);
  }

  /// The run loop's per-event bookkeeping, shared by run() and the
  /// in-place path so the two cannot drift: clock, dispatch counters and
  /// the heap-depth sample.
  void note_dispatch(Time t) {
    assert(t >= now_ - kTimeEpsilon);
    now_ = std::max(now_, t);
    ++events_dispatched_;
    obs_events_->add(1);
    obs_heap_depth_->record(static_cast<double>(queue_.size_estimate()));
  }

  /// The in-place path (see the header comment): true when `h`'s wake-up
  /// at `t` is the event run() would dispatch next, after doing that
  /// dispatch's bookkeeping.  Under a watchdog every wake-up goes through
  /// the queue, so run() alone counts events and trips.
  bool dispatch_in_place(Time t, std::coroutine_handle<> h) {
    if (guarded_ || h != running_ || t > until_ || !queue_.earlier_than_top(t))
      return false;
    if (sampler_ != nullptr) sampler_->advance_to(t);
    // The depth recorded is what pop() would have left: nothing was pushed.
    note_dispatch(t);
    ++events_in_place_;
    return true;
  }

  [[noreturn]] void trip(StallReason reason, std::uint64_t run_events) {
    obs_watchdog_trips_->add(1);
    std::vector<std::string> blocked;
    for (const StallInspector& fn : stall_inspectors_) fn(blocked);
    throw SimStalled(reason, now_, run_events, live_processes_, std::move(blocked));
  }

  /// Flush pool-stat deltas to obs.  Off the hot path: once per drained
  /// run(), not per event.
  void publish_pool_stats() {
    for (PoolChannel& ch : pool_channels_) {
      const PoolBase::Stats d = ch.pool->take_delta();
      if (d.allocated != 0) ch.allocated->add(static_cast<double>(d.allocated));
      if (d.reused != 0) ch.reused->add(static_cast<double>(d.reused));
      if (d.slabs != 0) ch.slabs->add(static_cast<double>(d.slabs));
      if (d.slab_bytes != 0) ch.slab_bytes->add(static_cast<double>(d.slab_bytes));
      ch.live->set(static_cast<double>(d.live));
    }
  }

  friend struct Coro::promise_type::FinalAwaiter;
  void on_process_done(std::coroutine_handle<Coro::promise_type> h) {
    Coro::promise_type& p = h.promise();
    --live_processes_;
    if (p.live_prev != nullptr)
      p.live_prev->live_next = p.live_next;
    else
      live_head_ = p.live_next;
    if (p.live_next != nullptr) p.live_next->live_prev = p.live_prev;
    h.destroy();
  }

  struct PoolChannel {
    PoolBase* pool = nullptr;
    obs::Counter* allocated = nullptr;
    obs::Counter* reused = nullptr;
    obs::Counter* slabs = nullptr;
    obs::Counter* slab_bytes = nullptr;
    obs::Gauge* live = nullptr;
  };

  Time now_ = 0.0;
  EventQueue queue_;
  int live_processes_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t events_in_place_ = 0;
  Coro::promise_type* live_head_ = nullptr;  ///< intrusive live-process list
  // State of the active run(), shared with the in-place path.
  std::coroutine_handle<> running_;  ///< coroutine run() is resuming, if any
  Time until_ = kNever;
  bool guarded_ = false;  ///< run() has a watchdog armed
  WatchdogConfig watchdog_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::vector<StallInspector> stall_inspectors_;
  SlabPool<WaitNode> wait_pool_;
  SymbolTable symbols_;
  std::vector<PoolChannel> pool_channels_;
  obs::Counter* obs_events_ = nullptr;
  obs::Counter* obs_spawns_ = nullptr;
  obs::Histogram* obs_heap_depth_ = nullptr;
  obs::Counter* obs_watchdog_trips_ = nullptr;
};

inline void Coro::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<Coro::promise_type> h) noexcept {
  h.promise().engine->on_process_done(h);
}

}  // namespace cci::sim
