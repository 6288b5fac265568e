// Controlled scheduler over the sched::point() hook points: seeded random
// and PCT-style schedules, bounded exhaustive enumeration, and text-trace
// record/replay with greedy minimization.
//
// Model (CHESS-style serializing scheduler): while a Session is installed,
// at most one registered thread runs between scheduling points.  A thread
// arriving at a point parks; the session policy picks the next thread from
// the *runnable set* — registered threads parked at a point, excluding
// threads inside a BlockedScope (native cv waits / joins) and threads that
// were announced via expect_thread() but have not yet registered.  Because
// decisions are deferred until every expected thread has checked in, the
// runnable set at each step — and therefore the whole schedule — is a pure
// function of (workload, policy, seed), independent of OS timing.  One
// schedule is the sequence of grant decisions; it serializes to a small
// text trace that replays bit-for-bit.
//
// Failure handling: policy-level problems (a wait that outlives the
// timeout, a replay that diverges from its trace, an override naming a
// thread that is not runnable) never throw from arbitrary instrumented
// threads — that would terminate worker loops that do not expect
// exceptions.  Instead the session *aborts*: every parked thread is
// released, further points pass through uncontrolled, and the error string
// is reported via Session::error() / thrown from Session::finish() on the
// owning thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/point.hpp"

namespace cci::sched {

/// One grant decision: at `step`, thread `thread` (parked at `kind`/`id`)
/// was allowed to proceed, chosen out of `runnable` (name-sorted).
struct Decision {
  std::size_t step = 0;
  std::string thread;
  Kind kind = Kind::kThreadBegin;
  std::uint64_t id = 0;
  std::vector<std::string> runnable;
};

/// A serializable schedule.  Two shapes:
///  * full — every decision, with its runnable set; replays exactly and
///    verifies each granted thread is parked at the recorded (kind, id);
///  * overrides — a sparse set of (step -> thread) exceptions over the
///    deterministic default policy (lexicographically smallest runnable
///    thread).  This is what the minimizer produces: a three-line override
///    trace reads as "the bug needs worker 1 to merge before worker 0".
struct Trace {
  bool sparse = false;
  std::vector<Decision> steps;                   ///< full shape
  std::map<std::size_t, std::string> overrides;  ///< sparse shape

  [[nodiscard]] std::size_t size() const {
    return sparse ? overrides.size() : steps.size();
  }

  /// Versioned plain-text round-trip (the schedule analogue of the %.17g
  /// result-cache contract: what is written is exactly what replays).
  [[nodiscard]] std::string serialize() const;
  /// Strict inverse of serialize(): accepts only lines of the header's
  /// shape, canonical unsigned numbers, strictly increasing steps, no
  /// trailing tokens and nothing after `end`.  Anything else throws a
  /// std::runtime_error naming the line, so a parsed trace always
  /// re-serializes byte-identically.
  static Trace parse(const std::string& text);
  void save(const std::string& path) const;     ///< throws on I/O failure
  static Trace load(const std::string& path);   ///< throws on I/O or parse failure
};

/// Convert a full trace to the equivalent sparse override trace: keep only
/// the steps where the recorded choice differs from the default policy.
Trace to_overrides(const Trace& full);

struct Options {
  enum class Mode {
    kRandom,     ///< uniform choice among runnable threads (seeded)
    kPct,        ///< PCT: random priorities + `pct_depth - 1` change points
    kReplay,     ///< follow a full trace exactly; divergence aborts
    kOverrides,  ///< default policy with sparse overrides; bad override aborts
    kPrefix,     ///< follow `prefix`, then run-to-completion default (DFS leg)
  };
  Mode mode = Mode::kRandom;
  std::uint64_t seed = 1;
  /// PCT depth d: schedules with <= d-1 priority-inversion points are
  /// covered with known probability; small d finds most real bugs.
  int pct_depth = 3;
  Trace replay;                      ///< kReplay / kOverrides input
  std::vector<std::string> prefix;   ///< kPrefix input (thread name per step)
  /// Per-wait watchdog: a registered thread parked longer than this aborts
  /// the session (missing BlockedScope or a genuine native deadlock) rather
  /// than hanging CI.
  std::chrono::milliseconds timeout{20000};
  /// Hard cap on decisions per schedule — a backstop against policy-induced
  /// livelock (e.g. a random schedule starving the thread that would end
  /// the workload), far above any legitimate test workload.
  std::size_t max_steps = 1u << 20;
};

/// Thrown by Session::finish() when the schedule could not be driven to
/// completion (timeout, replay divergence, unrunnable override).
class ScheduleError : public std::runtime_error {
 public:
  explicit ScheduleError(const std::string& what) : std::runtime_error(what) {}
};

/// One controlled schedule.  Construction installs the session process-wide
/// (at most one at a time) and registers the calling thread as "main",
/// holding the token; destruction releases any stragglers and uninstalls.
/// Typical use:
///
///   sched::Options o;  o.mode = sched::Options::Mode::kRandom;  o.seed = 42;
///   sched::Session session(o);
///   run_workload();            // hits CCI_SCHED_POINT sites
///   session.finish();          // throws ScheduleError on abort
///   sched::Trace t = session.trace();
class Session {
 public:
  explicit Session(Options opts);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Decisions recorded so far (call after the workload has joined its
  /// threads; reading mid-run from other threads is a race).
  [[nodiscard]] const std::vector<Decision>& decisions() const;
  /// Full-shape trace of the recorded decisions.
  [[nodiscard]] Trace trace() const;
  /// Empty when the schedule ran to completion; otherwise the abort reason.
  [[nodiscard]] const std::string& error() const;
  /// Points hit by threads the session does not control (threads created
  /// before the session, or never wrapped in a ThreadScope).
  [[nodiscard]] std::uint64_t uncontrolled_points() const;
  /// Throws ScheduleError when error() is non-empty.
  void finish() const;

  struct Impl;  ///< public only so file-local helpers can name it

 private:
  Impl* impl_;
};

/// Greedy trace minimization: convert `failing` (full shape) to overrides,
/// then repeatedly try dropping each override, keeping the drop whenever
/// `fails(candidate)` still returns true.  `fails` must replay the workload
/// under a kOverrides session and report whether the bug reproduced; a
/// throw from `fails` counts as "did not reproduce" (the candidate is
/// rejected and the override kept).  Returns the smallest sparse trace that
/// still fails — often empty, meaning the default schedule alone fails.
Trace minimize_trace(const Trace& failing,
                     const std::function<bool(const Trace&)>& fails);

/// Bounded exhaustive schedule enumeration (stateless DFS by prefix
/// re-execution).  Runs `body` once per schedule under a kPrefix session;
/// after each schedule calls `on_schedule(session)` — return false to stop
/// (e.g. the oracle found a divergence).  Alternatives that would exceed
/// `preemption_bound` context switches (switching away from a still-
/// runnable thread) are pruned, which is what makes small campaigns and
/// 2-shard groups tractable.
struct ExhaustiveResult {
  int schedules = 0;   ///< schedules actually executed
  bool stopped = false;  ///< on_schedule returned false
  bool exhausted = false;  ///< frontier emptied within max_schedules
};
ExhaustiveResult explore_exhaustive(
    int preemption_bound, int max_schedules, const std::function<void()>& body,
    const std::function<bool(const Session&)>& on_schedule);

/// Test-only planted bug ("mutation"): when on, obs::Registry::merge_from
/// overwrites counter values instead of adding them (last writer wins), so
/// any multi-worker merge becomes schedule- and partition-dependent.  The
/// mutation test proves the explorer catches exactly this class of bug
/// within a bounded schedule budget.  Read by instrumented code only in
/// CCI_SCHED builds; always-off otherwise.
bool mutation_merge_overwrite();
void set_mutation_merge_overwrite(bool on);

}  // namespace cci::sched
