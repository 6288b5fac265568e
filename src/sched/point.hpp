// Schedule-exploration hook points for the concurrent host layers.
//
// The concurrent host code (work-stealing CampaignEngine, thread-local obs
// registries with commutative merge, ShardGroup window barriers) promises
// bitwise determinism: jobs=8 == jobs=1, shards=4 run-to-run identical.
// Those promises are tested only under whatever interleavings CI hardware
// happens to produce — until a controlled scheduler can *choose* the
// interleaving.  This header is the instrumentation half of that scheduler:
// a `CCI_SCHED_POINT(kind, id)` macro placed at every scheduling-relevant
// operation (deque pop/steal, registry merge, cache read/write/rename,
// window-barrier arrival).
//
// Provenance pattern (mirrors CCI_OBS_DISABLE / CCI_SIM_POOLS): the macros
// compile to nothing unless the build defines CCI_SCHED, so default builds
// are byte-identical in behaviour — no branch, no function call, no symbol
// reference into cci_sched from the instrumented hot paths.  The runtime
// functions below always exist (the sched library is always built), so the
// explorer's own unit tests can drive hand-made threads through sched::point
// calls even in a default build.
//
// Runtime semantics when CCI_SCHED is defined but no sched::Session is
// installed: every call is a cheap early-out on one relaxed atomic load.
// With a Session installed, registered threads stop at each point and a
// central policy (seeded random, PCT priorities, bounded-exhaustive DFS, or
// trace replay) decides who proceeds — see sched/explorer.hpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace cci::sched {

/// What kind of scheduling-relevant operation a hook point marks.  The kind
/// (plus a small integer id: worker index, shard index, cache key low
/// bits) names the step in recorded traces, so a minimized failing
/// trace reads as a story: "worker 1 stole from 0, then merged, then ...".
enum class Kind : std::uint8_t {
  kThreadBegin,    ///< a registered thread's first stop (ThreadScope ctor)
  kThreadEnd,      ///< a registered thread is about to finish (ThreadScope dtor)
  kQueuePop,       ///< CampaignEngine worker pops its own deque front
  kQueueSteal,     ///< CampaignEngine worker tries to steal a victim's back
  kRegistryMerge,  ///< obs::Registry::merge_from is about to fold a registry
  kCacheRead,      ///< result-cache entry load
  kCacheWrite,     ///< result-cache tmp-file write
  kCacheRename,    ///< result-cache tmp -> final rename (the publish step)
  kBarrierArrive,  ///< ShardGroup worker arrives at the window barrier
  kCondWait,       ///< controlled condition re-check (cv_wait / await loops)
  kBlockedExit,    ///< thread re-enters the controlled world after a native wait
};

/// Stable lowercase token for a Kind (trace files, diagnostics).
const char* kind_name(Kind k);
/// Inverse of kind_name; returns false when `token` names no Kind.
bool kind_from_name(const char* token, Kind& out);

/// A scheduling point.  No-op unless the calling thread is registered with
/// an installed Session; otherwise the thread blocks here until the session
/// policy grants it the right to proceed.
void point(Kind kind, std::uint64_t id);

/// Declare, from an already-controlled thread, that a new controlled thread
/// named `name` is about to be spawned.  The session defers scheduling
/// decisions until every expected thread has registered (ThreadScope), which
/// makes the runnable set — and therefore every decision — independent of OS
/// thread-startup timing.  No-op without an active session.
void expect_thread(const char* name);

/// True while a Session is installed (any thread).
bool active();

/// True when the *calling thread* is registered with an active session —
/// i.e. its scheduling is currently under explorer control.
bool controlled();

/// Park the calling thread at a kCondWait point.  Unlike a plain point, a
/// condition re-check is *throttled*: the thread only rejoins the runnable
/// set after at least one other decision has been granted, so a waiter
/// whose predicate cannot change yet is never spun on.  Used by cv_wait()
/// and await_thread_exit(); no-op for uncontrolled threads.
///
/// `after_work` tells the deadlock detector whether the thread ran real
/// code since its last park (the *first* park of a wait loop) or is merely
/// re-checking a predicate after an unlock/park/lock cycle that cannot have
/// changed any shared state (every later park of the same loop).  The
/// single-argument form is the re-check: correct for hand-rolled loops
/// whose body is only the predicate load, like cv_wait()'s.
void yield_wait(std::uint64_t id, bool after_work);
void yield_wait(std::uint64_t id);

/// Wait (controlled) until no registered thread named `name` remains, then
/// return.  Call immediately before std::thread::join() on a controlled
/// thread: the join itself then completes without needing any grant, so it
/// can sit inside a BlockedScope without stalling the schedule.  Matches
/// the name passed to ThreadScope (duplicate-suffix-insensitive).  No-op
/// for uncontrolled threads.
void await_thread_exit(const char* name);

/// Controlled replacement for `cv.wait(lk, pred)`.  Uncontrolled threads
/// take the native wait; controlled threads re-check the predicate in a
/// yield loop so that both the wait and every wake-up are explicit
/// scheduling decisions — this is what keeps the runnable set (and thus
/// recorded traces) independent of OS wake timing.  The predicate is only
/// ever evaluated with `lk` held, exactly like the native form.
template <class Pred>
void cv_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
             std::uint64_t id, Pred pred) {
  if (!controlled()) {
    cv.wait(lk, pred);
    return;
  }
  // The first park follows whatever the thread did since its last point (a
  // progress event for the deadlock detector); every later park of this
  // loop only re-checked the predicate.
  bool first = true;
  while (!pred()) {
    lk.unlock();
    yield_wait(id, first);
    first = false;
    lk.lock();
  }
}

/// RAII registration of the calling thread with the active session under a
/// stable `name` ("main", "campaign.worker.0", "sim.shard.1", ...).  The
/// constructor blocks at a kThreadBegin point; the destructor announces
/// kThreadEnd and deregisters.  Constructed with no session active, the
/// scope is inert (and stays inert even if a session appears later — threads
/// born outside a session are never captured mid-flight).
class ThreadScope {
 public:
  explicit ThreadScope(const char* name);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  bool registered_ = false;
};

/// RAII marker around a native wait that completes *autonomously* — one
/// that needs no further grant to any controlled thread, such as a
/// std::thread::join() issued after await_thread_exit() reported the
/// target gone.  The calling thread leaves the runnable set, and the
/// session defers all decisions until the scope exits and the thread
/// re-parks (kBlockedExit) — deferral is what keeps the schedule
/// independent of how long the OS takes to retire the joined thread.  Do
/// NOT wrap a wait that depends on another controlled thread's progress
/// (use cv_wait for those): decisions are frozen for the scope's lifetime,
/// so such a wait would stall until the session watchdog aborts.  Inert
/// for unregistered threads.
class BlockedScope {
 public:
  BlockedScope();
  ~BlockedScope();
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  bool marked_ = false;
};

}  // namespace cci::sched

// The hooks themselves.  `CCI_SCHED_POINT` may sit in allocation-free hot
// paths: when CCI_SCHED is off it must (and does) expand to a no-op
// expression with zero code size.
#ifdef CCI_SCHED
#define CCI_SCHED_POINT(kind, id) ::cci::sched::point(::cci::sched::Kind::kind, (id))
#define CCI_SCHED_EXPECT_THREAD(name) ::cci::sched::expect_thread(name)
#define CCI_SCHED_THREAD_SCOPE(name) ::cci::sched::ThreadScope cci_sched_thread_scope(name)
#define CCI_SCHED_BLOCKED_SCOPE() ::cci::sched::BlockedScope cci_sched_blocked_scope
#define CCI_SCHED_CV_WAIT(cv, lk, id, ...) ::cci::sched::cv_wait((cv), (lk), (id), __VA_ARGS__)
#else
#define CCI_SCHED_POINT(kind, id) ((void)0)
#define CCI_SCHED_EXPECT_THREAD(name) ((void)0)
#define CCI_SCHED_THREAD_SCOPE(name) ((void)0)
#define CCI_SCHED_BLOCKED_SCOPE() ((void)0)
#define CCI_SCHED_CV_WAIT(cv, lk, id, ...) (cv).wait((lk), __VA_ARGS__)
#endif
