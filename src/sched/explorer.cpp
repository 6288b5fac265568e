#include "sched/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>

namespace cci::sched {

// ---- kind names -------------------------------------------------------------

namespace {

constexpr const char* kKindNames[] = {
    "thread_begin",   "thread_end",  "queue_pop",   "queue_steal",
    "registry_merge", "cache_read",  "cache_write", "cache_rename",
    "barrier_arrive", "cond_wait",   "blocked_exit",
};
constexpr std::size_t kKindCount = sizeof(kKindNames) / sizeof(kKindNames[0]);

/// PCT base priority of a thread: a seeded hash of its session name
/// (FNV-1a, then the splitmix64 finalizer), so it does not depend on which
/// thread the OS happened to start first.
long long pct_priority(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) h = (h ^ c) * 1099511628211ULL;
  std::uint64_t z = seed ^ h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<long long>((z ^ (z >> 31)) >> 1);
}

}  // namespace

const char* kind_name(Kind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindCount ? kKindNames[i] : "unknown";
}

bool kind_from_name(const char* token, Kind& out) {
  for (std::size_t i = 0; i < kKindCount; ++i)
    if (std::strcmp(token, kKindNames[i]) == 0) {
      out = static_cast<Kind>(i);
      return true;
    }
  return false;
}

// ---- session state machine --------------------------------------------------

namespace {

struct ThreadState {
  std::string name;  ///< unique within the session ("sim.shard.0#2" on reuse)
  std::string base;  ///< the name passed to ThreadScope
  enum class St { kRunning, kParked, kBlockedNative } st = St::kRunning;
  Kind kind = Kind::kThreadBegin;  ///< pending point while kParked
  std::uint64_t id = 0;
  std::size_t parked_step = 0;  ///< step at which a kCondWait park happened
  std::uint64_t recheck_gen = 0;  ///< progress_gen as of the last cond re-check
};

}  // namespace

/// All session state lives under one mutex.  Decisions are made passively
/// in the context of whichever thread's state change unblocked them — there
/// is no separate scheduler thread.
struct Session::Impl {
  explicit Impl(Options o) : opts(std::move(o)), rng(opts.seed) {
    if (opts.mode == Options::Mode::kPct) {
      // PCT change points: d-1 steps at which the top-priority thread is
      // demoted below everyone.  Sampled over a generous step range; steps
      // past the range simply see no more inversions.
      const int d = opts.pct_depth > 1 ? opts.pct_depth : 1;
      for (int i = 0; i < d - 1; ++i)
        change_steps.insert(static_cast<std::size_t>(rng() % 4096));
    }
  }

  Options opts;
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::thread::id, ThreadState> threads;
  std::multiset<std::string> expected;       ///< announced, not yet registered
  std::map<std::string, int> name_counts;    ///< for duplicate-name suffixes
  std::thread::id running{};
  bool has_running = false;
  int native_blocked = 0;  ///< BlockedScope depth across all threads
  std::size_t step = 0;
  std::string last_granted;
  std::vector<Decision> decisions;
  std::uint64_t uncontrolled = 0;
  /// Bumped on every event that can change a wait predicate: a non-cond
  /// park (the thread ran real code to get there), a registration, an
  /// unregistration, a native-wait completion.  A cond-waiter re-checks its
  /// predicate immediately before every park, so a waiter whose
  /// `recheck_gen` equals the current generation has seen the latest state.
  std::uint64_t progress_gen = 0;
  bool aborted = false;
  bool closing = false;
  std::string error;
  std::mt19937_64 rng;
  std::map<std::string, long long> priority;  ///< PCT priorities by name
  std::set<std::size_t> change_steps;
  long long demote_next = -1;
  std::atomic<int> users{0};  ///< threads currently inside an API call

  void abort_locked(std::string msg) {
    if (!aborted) {
      aborted = true;
      error = std::move(msg);
    }
    cv.notify_all();
  }

  [[nodiscard]] bool eligible(const ThreadState& ts) const {
    if (ts.st != ThreadState::St::kParked) return false;
    // Condition re-checks are throttled: a waiter only becomes runnable
    // again after some other decision has been granted, so a predicate
    // that cannot have changed is never re-polled.
    return ts.kind != Kind::kCondWait || step > ts.parked_step;
  }

  static bool order_before(const ThreadState& a, const ThreadState& b) {
    const bool ac = a.kind == Kind::kCondWait;
    const bool bc = b.kind == Kind::kCondWait;
    if (ac != bc) return bc;  // non-cond-wait threads sort first
    return a.name < b.name;
  }

  /// Pick and grant the next thread if a decision is currently possible.
  /// Call whenever the runnable/running sets change; must hold `mu`.
  void decide_locked() {
    if (has_running || aborted || closing) return;
    if (!expected.empty()) return;      // wait for announced registrations
    if (native_blocked > 0) return;     // decisions frozen under BlockedScope
    if (step >= opts.max_steps) {
      abort_locked("sched: schedule exceeded max_steps=" +
                   std::to_string(opts.max_steps));
      return;
    }
    std::vector<std::thread::id> elig;
    std::vector<std::thread::id> parked;
    for (auto& [tid, ts] : threads) {
      if (ts.st == ThreadState::St::kParked) parked.push_back(tid);
      if (eligible(ts)) elig.push_back(tid);
    }
    // All parked but throttled (every thread in a cond-wait it just
    // re-checked): re-enable them — the throttle must never wedge the
    // session, only stop busy re-polls while better options exist.
    if (elig.empty()) elig = parked;
    if (elig.empty()) return;  // nothing parked; workload is between points
    // Cond-waiters are only schedulable when nothing else is: a waiter's
    // predicate can only change when some other thread runs, so granting a
    // re-check while a real point is pending explores nothing new — it just
    // multiplies every genuine interleaving by the wait-loop spins.
    bool any_non_cond = false;
    for (auto tid : elig)
      if (threads.at(tid).kind != Kind::kCondWait) any_non_cond = true;
    if (any_non_cond)
      elig.erase(std::remove_if(elig.begin(), elig.end(),
                                [this](std::thread::id tid) {
                                  return threads.at(tid).kind == Kind::kCondWait;
                                }),
                 elig.end());
    std::sort(elig.begin(), elig.end(), [this](auto a, auto b) {
      return order_before(threads.at(a), threads.at(b));
    });
    if (!any_non_cond) {
      // Every controlled thread is a cond-waiter.  Each re-checked its
      // predicate immediately before parking; if every one of those checks
      // happened after the last progress event, no predicate can have
      // changed since it was seen false — and only cond re-checks remain to
      // grant, which change nothing.  That is a condition deadlock, exactly:
      // any thread that ran real code since its last park bumped the
      // generation when it next parked (after_work), so a waiter with a
      // stale recheck_gen always gets re-granted before this can fire.
      bool stuck = true;
      for (const auto& [tid, ts] : threads)
        if (ts.st != ThreadState::St::kParked || ts.kind != Kind::kCondWait ||
            ts.recheck_gen != progress_gen)
          stuck = false;
      if (stuck) {
        std::string who;
        for (auto tid : elig) who += (who.empty() ? "" : ", ") + threads.at(tid).name;
        abort_locked(
            "sched: condition-wait deadlock — every controlled thread is "
            "waiting on a predicate no other thread can change (" + who + ")");
        return;
      }
    }
    std::vector<std::string> names;
    names.reserve(elig.size());
    for (auto tid : elig) names.push_back(threads.at(tid).name);
    std::size_t choice = 0;
    if (!choose_locked(elig, names, choice)) return;  // aborted inside
    const std::thread::id tid = elig[choice];
    ThreadState& ts = threads.at(tid);
    decisions.push_back(Decision{step, ts.name, ts.kind, ts.id, names});
    last_granted = ts.name;
    ++step;
    running = tid;
    has_running = true;
    cv.notify_all();
  }

  /// Default deterministic policy: first by the (non-cond-wait first, then
  /// name) ordering `elig` is already sorted in.
  static std::size_t default_choice() { return 0; }

  bool choose_locked(const std::vector<std::thread::id>& elig,
                     const std::vector<std::string>& names, std::size_t& out) {
    using Mode = Options::Mode;
    switch (opts.mode) {
      case Mode::kRandom:
        out = static_cast<std::size_t>(rng() % elig.size());
        return true;
      case Mode::kPct: {
        if (change_steps.count(step) != 0) {
          std::size_t top = top_priority(names);
          priority[names[top]] = demote_next--;
        }
        out = top_priority(names);
        return true;
      }
      case Mode::kReplay: {
        if (step >= opts.replay.steps.size()) {
          abort_locked("sched replay: trace exhausted at step " +
                       std::to_string(step) + " (workload diverged from recording)");
          return false;
        }
        const Decision& rec = opts.replay.steps[step];
        const auto it = std::find(names.begin(), names.end(), rec.thread);
        if (it == names.end()) {
          abort_locked("sched replay: divergence at step " + std::to_string(step) +
                       " — recorded thread '" + rec.thread + "' is not runnable");
          return false;
        }
        out = static_cast<std::size_t>(it - names.begin());
        const ThreadState& ts = threads.at(elig[out]);
        if (ts.kind != rec.kind || ts.id != rec.id) {
          abort_locked("sched replay: divergence at step " + std::to_string(step) +
                       " — thread '" + rec.thread + "' is parked at " +
                       kind_name(ts.kind) + "/" + std::to_string(ts.id) +
                       ", trace recorded " + kind_name(rec.kind) + "/" +
                       std::to_string(rec.id));
          return false;
        }
        return true;
      }
      case Mode::kOverrides: {
        const auto it = opts.replay.overrides.find(step);
        if (it == opts.replay.overrides.end()) {
          out = default_choice();
          return true;
        }
        const auto pos = std::find(names.begin(), names.end(), it->second);
        if (pos == names.end()) {
          abort_locked("sched overrides: step " + std::to_string(step) +
                       " names thread '" + it->second + "' which is not runnable");
          return false;
        }
        out = static_cast<std::size_t>(pos - names.begin());
        return true;
      }
      case Mode::kPrefix: {
        if (step < opts.prefix.size()) {
          const auto pos = std::find(names.begin(), names.end(), opts.prefix[step]);
          if (pos == names.end()) {
            abort_locked("sched prefix: step " + std::to_string(step) +
                         " names thread '" + opts.prefix[step] +
                         "' which is not runnable");
            return false;
          }
          out = static_cast<std::size_t>(pos - names.begin());
          return true;
        }
        // Free suffix: run-to-completion — continue the last granted thread
        // while it stays runnable (keeps the DFS frontier small), else the
        // default policy.
        const auto pos = std::find(names.begin(), names.end(), last_granted);
        out = pos != names.end() ? static_cast<std::size_t>(pos - names.begin())
                                 : default_choice();
        return true;
      }
    }
    out = default_choice();
    return true;
  }

  std::size_t top_priority(const std::vector<std::string>& names) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < names.size(); ++i)
      if (priority[names[i]] > priority[names[best]]) best = i;
    return best;
  }

  /// Wait until this thread holds the token.  Returns false on abort or
  /// shutdown (the caller then free-runs).  Must hold `mu` via `lk`.
  bool wait_for_grant_locked(std::unique_lock<std::mutex>& lk, std::thread::id tid) {
    const auto deadline = std::chrono::steady_clock::now() + opts.timeout;
    for (;;) {
      if (aborted || closing) return false;
      if (has_running && running == tid) return true;
      if (cv.wait_until(lk, deadline) == std::cv_status::timeout) {
        if (aborted || closing) return false;
        if (has_running && running == tid) return true;
        abort_locked("sched: thread '" + threads.at(tid).name + "' waited " +
                     std::to_string(opts.timeout.count()) +
                     "ms for a grant — native deadlock, missing BlockedScope/"
                     "cv_wait instrumentation, or a wedged workload");
        return false;
      }
    }
  }

  void at_point(Kind kind, std::uint64_t id, bool after_work) {
    std::unique_lock<std::mutex> lk(mu);
    const auto tid = std::this_thread::get_id();
    const auto it = threads.find(tid);
    if (it == threads.end()) {
      ++uncontrolled;
      return;
    }
    if (aborted || closing) return;
    ThreadState& ts = it->second;
    ts.st = ThreadState::St::kParked;
    ts.kind = kind;
    ts.id = id;
    if (after_work) ++progress_gen;
    if (kind == Kind::kCondWait) {
      ts.parked_step = step;
      ts.recheck_gen = progress_gen;
    }
    if (has_running && running == tid) has_running = false;
    decide_locked();
    wait_for_grant_locked(lk, tid);
    ts.st = ThreadState::St::kRunning;
  }

  bool register_thread(const char* base_name) {
    std::unique_lock<std::mutex> lk(mu);
    if (aborted || closing) return false;
    const auto tid = std::this_thread::get_id();
    if (threads.count(tid) != 0) return false;  // double registration
    const std::string base(base_name);
    const auto e = expected.find(base);
    if (e != expected.end()) expected.erase(e);
    const int n = ++name_counts[base];
    ThreadState ts;
    ts.base = base;
    ts.name = n == 1 ? base : base + "#" + std::to_string(n);
    ts.st = ThreadState::St::kParked;
    ts.kind = Kind::kThreadBegin;
    ts.id = 0;
    // One draw per registration, as before, keeps every mode's random
    // stream unchanged; registration order is an OS race, so the PCT
    // priority itself must not come from it.
    rng();
    priority.emplace(ts.name, pct_priority(opts.seed, ts.name));
    const auto it = threads.emplace(tid, std::move(ts)).first;
    ++progress_gen;
    decide_locked();
    wait_for_grant_locked(lk, tid);
    it->second.st = ThreadState::St::kRunning;
    return true;
  }

  void unregister_thread() {
    std::unique_lock<std::mutex> lk(mu);
    const auto tid = std::this_thread::get_id();
    const auto it = threads.find(tid);
    if (it == threads.end()) return;
    if (!aborted && !closing) {
      ThreadState& ts = it->second;
      ts.st = ThreadState::St::kParked;
      ts.kind = Kind::kThreadEnd;
      ts.id = 0;
      if (has_running && running == tid) has_running = false;
      decide_locked();
      wait_for_grant_locked(lk, tid);
    }
    if (has_running && running == tid) has_running = false;
    threads.erase(it);
    ++progress_gen;
    decide_locked();
    cv.notify_all();
  }

  bool enter_native() {
    std::unique_lock<std::mutex> lk(mu);
    const auto tid = std::this_thread::get_id();
    const auto it = threads.find(tid);
    if (it == threads.end() || aborted || closing) return false;
    it->second.st = ThreadState::St::kBlockedNative;
    ++native_blocked;
    if (has_running && running == tid) has_running = false;
    return true;
  }

  void exit_native() {
    std::unique_lock<std::mutex> lk(mu);
    const auto tid = std::this_thread::get_id();
    const auto it = threads.find(tid);
    if (it == threads.end()) return;
    --native_blocked;
    if (aborted || closing) {
      it->second.st = ThreadState::St::kRunning;
      return;
    }
    ThreadState& ts = it->second;
    ts.st = ThreadState::St::kParked;
    ts.kind = Kind::kBlockedExit;
    ts.id = 0;
    ++progress_gen;
    decide_locked();
    wait_for_grant_locked(lk, tid);
    ts.st = ThreadState::St::kRunning;
  }

  void announce(const char* name) {
    std::lock_guard<std::mutex> lk(mu);
    if (aborted || closing) return;
    expected.insert(std::string(name));
  }

  bool any_named(const char* base) {
    std::lock_guard<std::mutex> lk(mu);
    if (aborted || closing) return false;
    for (const auto& [tid, ts] : threads)
      if (ts.base == base && tid != std::this_thread::get_id()) return true;
    // A thread announced but not yet registered also counts: joining its
    // std::thread before it checks in would deadlock the registration.
    return expected.count(base) != 0;
  }

  [[nodiscard]] bool is_controlled() {
    std::lock_guard<std::mutex> lk(mu);
    return !aborted && !closing && threads.count(std::this_thread::get_id()) != 0;
  }
};

// ---- global installation ----------------------------------------------------

namespace {

std::mutex g_install_mu;
Session::Impl* g_impl = nullptr;       // guarded by g_install_mu
std::atomic<bool> g_active{false};     // fast pre-check for hook sites
std::atomic<bool> g_mutation_merge{false};

Session::Impl* acquire() {
  if (!g_active.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard<std::mutex> lk(g_install_mu);
  if (g_impl == nullptr) return nullptr;
  g_impl->users.fetch_add(1, std::memory_order_acq_rel);
  return g_impl;
}

void release(Session::Impl* s) { s->users.fetch_sub(1, std::memory_order_acq_rel); }

}  // namespace

// ---- public hook API --------------------------------------------------------

bool active() { return g_active.load(std::memory_order_acquire); }

void point(Kind kind, std::uint64_t id) {
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  s->at_point(kind, id, /*after_work=*/true);
  release(s);
}

void yield_wait(std::uint64_t id, bool after_work) {
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  s->at_point(Kind::kCondWait, id, after_work);
  release(s);
}

void yield_wait(std::uint64_t id) { yield_wait(id, /*after_work=*/false); }

void expect_thread(const char* name) {
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  s->announce(name);
  release(s);
}

bool controlled() {
  Session::Impl* s = acquire();
  if (s == nullptr) return false;
  const bool r = s->is_controlled();
  release(s);
  return r;
}

void await_thread_exit(const char* name) {
  bool first = true;
  for (;;) {
    Session::Impl* s = acquire();
    if (s == nullptr) return;
    const bool self = s->is_controlled();
    const bool present = self && s->any_named(name);
    release(s);
    if (!present) return;
    yield_wait(0, first);
    first = false;
  }
}

ThreadScope::ThreadScope(const char* name) {
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  registered_ = s->register_thread(name);
  release(s);
}

ThreadScope::~ThreadScope() {
  if (!registered_) return;
  Session::Impl* s = acquire();
  if (s == nullptr) return;  // session already torn down
  s->unregister_thread();
  release(s);
}

BlockedScope::BlockedScope() {
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  marked_ = s->enter_native();
  release(s);
}

BlockedScope::~BlockedScope() {
  if (!marked_) return;
  Session::Impl* s = acquire();
  if (s == nullptr) return;
  s->exit_native();
  release(s);
}

// ---- Session ----------------------------------------------------------------

Session::Session(Options opts) : impl_(new Impl(std::move(opts))) {
  {
    std::lock_guard<std::mutex> lk(g_install_mu);
    if (g_impl != nullptr) {
      delete impl_;
      impl_ = nullptr;
      throw std::logic_error("sched: a Session is already installed");
    }
    g_impl = impl_;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    ThreadState ts;
    ts.base = ts.name = "main";
    ts.st = ThreadState::St::kRunning;
    ++impl_->name_counts["main"];
    impl_->priority.emplace("main", static_cast<long long>(impl_->rng() >> 1));
    const auto tid = std::this_thread::get_id();
    impl_->threads.emplace(tid, std::move(ts));
    impl_->running = tid;
    impl_->has_running = true;
    impl_->last_granted = "main";
  }
  g_active.store(true, std::memory_order_release);
}

Session::~Session() {
  {
    std::lock_guard<std::mutex> lk(g_install_mu);
    g_impl = nullptr;
    g_active.store(false, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->closing = true;
    const auto it = impl_->threads.find(std::this_thread::get_id());
    if (it != impl_->threads.end()) {
      if (impl_->has_running && impl_->running == it->first) impl_->has_running = false;
      impl_->threads.erase(it);
    }
    impl_->cv.notify_all();
  }
  // Stragglers woke on `closing` and are draining out of the API; the
  // workload should have joined its threads before destroying the session,
  // so this loop is normally zero iterations.
  while (impl_->users.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  delete impl_;
}

const std::vector<Decision>& Session::decisions() const { return impl_->decisions; }

Trace Session::trace() const {
  Trace t;
  std::lock_guard<std::mutex> lk(impl_->mu);
  t.steps = impl_->decisions;
  return t;
}

const std::string& Session::error() const { return impl_->error; }

std::uint64_t Session::uncontrolled_points() const { return impl_->uncontrolled; }

void Session::finish() const {
  std::string err;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    err = impl_->error;
  }
  if (!err.empty()) throw ScheduleError(err);
}

// ---- trace text format ------------------------------------------------------

std::string Trace::serialize() const {
  std::ostringstream os;
  os << "cci-sched-trace v1 " << (sparse ? "overrides" : "full") << '\n';
  if (sparse) {
    for (const auto& [s, thread] : overrides) os << "override " << s << ' ' << thread << '\n';
  } else {
    for (const Decision& d : steps) {
      os << "step " << d.step << ' ' << d.thread << ' ' << kind_name(d.kind) << ' '
         << d.id << ' ';
      for (std::size_t i = 0; i < d.runnable.size(); ++i)
        os << (i ? "," : "") << d.runnable[i];
      os << '\n';
    }
  }
  os << "end\n";
  return os.str();
}

namespace {

/// Whitespace-separated tokens of one trace line.
std::vector<std::string> line_tokens(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Canonical unsigned decimal only: digits, no sign, no leading zero, no
/// overflow — exactly the text serialize() writes, so anything accepted
/// re-serializes byte-identically and "-1" cannot wrap to 2^64 - 1.
template <class U>
bool parse_decimal(const std::string& tok, U& out) {
  if (tok.empty() || (tok.size() > 1 && tok[0] == '0')) return false;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] void bad_line(std::size_t line_no, const std::string& line,
                           const std::string& why) {
  throw std::runtime_error("sched trace: line " + std::to_string(line_no) + ": " + why +
                           " in '" + line + "'");
}

}  // namespace

Trace Trace::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) throw std::runtime_error("sched trace: empty input");
  const std::vector<std::string> header = line_tokens(line);
  if (header.size() != 3 || header[0] != "cci-sched-trace" || header[1] != "v1" ||
      (header[2] != "full" && header[2] != "overrides"))
    throw std::runtime_error("sched trace: line 1: bad header '" + line + "'");
  Trace t;
  t.sparse = header[2] == "overrides";
  // One line shape per trace: "override <step> <thread>" or
  // "step <step> <thread> <kind> <id> <runnable,...>".
  const std::string tag = t.sparse ? "override" : "step";
  const std::size_t fields = t.sparse ? 3 : 6;
  bool saw_end = false;
  bool any_step = false;
  std::size_t last_step = 0;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const std::vector<std::string> tok = line_tokens(line);
    if (saw_end) {
      if (!tok.empty()) bad_line(line_no, line, "text after 'end'");
      continue;
    }
    if (tok.empty() || tok[0][0] == '#') continue;
    if (tok[0] == "end") {
      if (tok.size() > 1) bad_line(line_no, line, "trailing token '" + tok[1] + "'");
      saw_end = true;
      continue;
    }
    if (tok[0] != "step" && tok[0] != "override") bad_line(line_no, line, "unknown line");
    if (tok[0] != tag)
      bad_line(line_no, line, "'" + tok[0] + "' line in a " + header[2] + " trace");
    if (tok.size() < fields) bad_line(line_no, line, "missing fields");
    if (tok.size() > fields) bad_line(line_no, line, "trailing token '" + tok[fields] + "'");
    std::size_t step = 0;
    if (!parse_decimal(tok[1], step)) bad_line(line_no, line, "bad step '" + tok[1] + "'");
    if (any_step && step <= last_step)
      bad_line(line_no, line,
               "step " + tok[1] + " does not follow step " + std::to_string(last_step));
    any_step = true;
    last_step = step;
    if (t.sparse) {
      t.overrides.emplace(step, tok[2]);
      continue;
    }
    Decision d;
    d.step = step;
    d.thread = tok[2];
    if (!kind_from_name(tok[3].c_str(), d.kind))
      bad_line(line_no, line, "unknown kind '" + tok[3] + "'");
    if (!parse_decimal(tok[4], d.id)) bad_line(line_no, line, "bad id '" + tok[4] + "'");
    std::size_t from = 0;
    for (;;) {
      const std::size_t comma = tok[5].find(',', from);
      std::string name = tok[5].substr(from, comma - from);
      if (name.empty()) bad_line(line_no, line, "empty name in runnable list");
      d.runnable.push_back(std::move(name));
      if (comma == std::string::npos) break;
      from = comma + 1;
    }
    t.steps.push_back(std::move(d));
  }
  if (!saw_end) throw std::runtime_error("sched trace: truncated (no 'end' line)");
  return t;
}

void Trace::save(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("sched trace: cannot open '" + path + "' for writing");
  os << serialize();
  if (!os) throw std::runtime_error("sched trace: short write to '" + path + "'");
}

Trace Trace::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("sched trace: cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << is.rdbuf();
  return parse(buffer.str());
}

Trace to_overrides(const Trace& full) {
  Trace t;
  t.sparse = true;
  for (const Decision& d : full.steps)
    if (!d.runnable.empty() && d.thread != d.runnable.front())
      t.overrides[d.step] = d.thread;
  return t;
}

// ---- minimization -----------------------------------------------------------

Trace minimize_trace(const Trace& failing,
                     const std::function<bool(const Trace&)>& fails) {
  Trace cur = failing.sparse ? failing : to_overrides(failing);
  const auto still_fails = [&fails](const Trace& cand) {
    try {
      return fails(cand);
    } catch (...) {
      return false;  // candidate did not even reproduce the run shape
    }
  };
  for (;;) {
    bool dropped = false;
    std::vector<std::size_t> keys;
    keys.reserve(cur.overrides.size());
    for (const auto& [s, thread] : cur.overrides) keys.push_back(s);
    for (const std::size_t s : keys) {
      Trace cand = cur;
      cand.overrides.erase(s);
      if (still_fails(cand)) {
        cur = std::move(cand);
        dropped = true;
      }
    }
    if (!dropped) break;
  }
  return cur;
}

// ---- bounded exhaustive enumeration -----------------------------------------

namespace {

int count_preemptions(const std::vector<std::string>& prefix,
                      const std::vector<Decision>& ds) {
  int p = 0;
  for (std::size_t j = 1; j < prefix.size() && j < ds.size(); ++j) {
    if (prefix[j] == prefix[j - 1]) continue;
    const auto& runnable = ds[j].runnable;
    if (std::find(runnable.begin(), runnable.end(), prefix[j - 1]) != runnable.end())
      ++p;  // switched away from a thread that could have continued
  }
  return p;
}

}  // namespace

ExhaustiveResult explore_exhaustive(
    int preemption_bound, int max_schedules, const std::function<void()>& body,
    const std::function<bool(const Session&)>& on_schedule) {
  ExhaustiveResult res;
  std::vector<std::vector<std::string>> frontier;
  frontier.emplace_back();  // the empty prefix: pure run-to-completion
  while (!frontier.empty()) {
    if (res.schedules >= max_schedules) return res;  // budget hit, not exhausted
    const std::vector<std::string> prefix = std::move(frontier.back());
    frontier.pop_back();
    Options o;
    o.mode = Options::Mode::kPrefix;
    o.prefix = prefix;
    std::vector<Decision> ds;
    std::string err;
    {
      Session session(o);
      body();
      ds = session.decisions();
      err = session.error();
      ++res.schedules;
      if (on_schedule && !on_schedule(session)) {
        res.stopped = true;
        return res;
      }
    }
    if (!err.empty()) continue;  // do not expand schedules that did not complete
    // Stateless DFS: branch only in the free suffix (steps >= |prefix|) —
    // alternatives inside the prefix were enqueued when its parent ran.
    for (std::size_t i = prefix.size(); i < ds.size(); ++i) {
      for (const std::string& alt : ds[i].runnable) {
        if (alt == ds[i].thread) continue;
        std::vector<std::string> child;
        child.reserve(i + 1);
        for (std::size_t j = 0; j < i; ++j) child.push_back(ds[j].thread);
        child.push_back(alt);
        if (count_preemptions(child, ds) <= preemption_bound)
          frontier.push_back(std::move(child));
      }
    }
  }
  res.exhausted = true;
  return res;
}

// ---- test-only mutations ----------------------------------------------------

bool mutation_merge_overwrite() {
  return g_mutation_merge.load(std::memory_order_relaxed);
}

void set_mutation_merge_overwrite(bool on) {
  g_mutation_merge.store(on, std::memory_order_relaxed);
}

}  // namespace cci::sched
