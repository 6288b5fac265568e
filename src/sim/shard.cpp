#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sched/point.hpp"
#include "sim/resource.hpp"
#include "sim/stall.hpp"

namespace {

#ifdef CCI_SCHED
std::string shard_thread_name(int index) {
  return "sim.shard." + std::to_string(index);
}
#else
/// Epoch checks a barrier waiter makes before it parks, paced by a pause
/// instruction: about 33 us on a 4-vCPU Xeon VM.  There, parking at once
/// made fabric_sharded slower, and 16x the spin cost CPU for no wall time
/// (docs/PERFORMANCE.md, "Lean replicas and the epoch barrier").
constexpr int kBarrierSpins = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
#endif

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

namespace cci::sim {

/// One thread of a coordinating thread's shard pool.  It parks on its
/// condition variable until a group posts a shard's job, runs it, and parks
/// again, for as long as the coordinating thread lives.  Only the
/// coordinating thread posts, waits and counts borrowers.
class ShardGroup::Worker {
 public:
  explicit Worker(int index) : index_(index), thread_(&Worker::main, this) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Hand the worker shard sh's job (run_job); it must be idle.
  void post(Shard& sh) {
    std::lock_guard<std::mutex> lk(mutex_);
    assert(job_ == nullptr);
    job_ = &sh;
    cv_.notify_all();
  }

  /// Wait until the posted job has finished.
  void wait() {
    std::unique_lock<std::mutex> lk(mutex_);
    CCI_SCHED_CV_WAIT(cv_, lk, static_cast<std::uint64_t>(index_),
                      [this] { return job_ == nullptr; });
  }

  /// wait() for a job that left the explorer's session before it finished:
  /// the rest of it runs uncontrolled, so the caller waits natively.
  void wait_native() {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_.wait(lk, [this] { return job_ == nullptr; });
  }

  /// Groups alive that borrowed this worker, counted on the coordinating
  /// thread: only the first borrower's first job joins the session and
  /// only the last one's last job leaves it.
  int borrowers = 0;

  /// On the worker, from a group's first and last jobs: register with the
  /// explorer's session under the shard's name, or leave it.
  void join_session() {
#ifdef CCI_SCHED
    session_.emplace(shard_thread_name(index_).c_str());
#endif
  }
  void leave_session() {
#ifdef CCI_SCHED
    session_.reset();
#endif
  }

 private:
  void main() {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      CCI_SCHED_CV_WAIT(cv_, lk, static_cast<std::uint64_t>(index_),
                        [this] { return stop_ || job_ != nullptr; });
      if (job_ == nullptr) return;  // stop requested with no pending job
      Shard& sh = *job_;
      lk.unlock();
      run_job(sh);
      lk.lock();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  const int index_;
  std::mutex mutex_;
  std::condition_variable cv_;
  Shard* job_ = nullptr;  ///< the posted job's shard, until it finished
  bool stop_ = false;
#ifdef CCI_SCHED
  std::optional<sched::ThreadScope> session_;
#endif
  std::thread thread_;  ///< last: starts once every field above exists
};

std::vector<std::unique_ptr<ShardGroup::Worker>>& ShardGroup::pool() {
  static thread_local std::vector<std::unique_ptr<Worker>> workers;
  return workers;
}

int ShardGroup::pooled_workers() { return static_cast<int>(pool().size()); }

ShardGroup::ShardGroup(Options opts) : opts_(opts), n_(opts.shards) {
  if (n_ < 1)
    throw std::invalid_argument("ShardGroup: shards must be >= 1, got " +
                                std::to_string(n_));
  if (opts_.lookahead <= 0.0)
    throw std::invalid_argument("ShardGroup: lookahead must be > 0");
  shards_.reserve(static_cast<std::size_t>(n_));
  if (n_ == 1) {
    // Serial special case: one engine on the caller's thread, caller's
    // registry, no worker — indistinguishable from using Engine directly.
    auto sh = std::make_unique<Shard>();
    sh->engine = std::make_unique<Engine>();
    shards_.push_back(std::move(sh));
    return;
  }
  reg_ = &obs::Registry::global();
  const bool obs_on = reg_->enabled();
  obs_windows_ = &reg_->counter("sim.shard.windows");
  obs_exchanges_ = &reg_->counter("sim.shard.exchanges");
  const obs::RunSampling& sampling = obs::run_sampling();
  if (sampling.sampling_on()) timeline_ = sampling.timeline;
  std::vector<std::unique_ptr<Worker>>& workers = pool();
  while (static_cast<int>(workers.size()) < n_)
    workers.push_back(std::make_unique<Worker>(static_cast<int>(workers.size())));
  for (int s = 0; s < n_; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->index = s;
    sh->worker = workers[static_cast<std::size_t>(s)].get();
    sh->registry = std::make_unique<obs::Registry>();
    sh->registry->set_enabled(obs_on);
    sh->sampling = sampling;
    if (timeline_ != nullptr) {
      sh->timeline = std::make_unique<obs::TimelineStore>();
      sh->sampling.timeline = sh->timeline.get();
    }
    shards_.push_back(std::move(sh));
  }
  // The first job brings each engine up on its worker, so engine(s) is
  // valid once the ctor returns.
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    if (p->worker->borrowers++ == 0) {
      CCI_SCHED_EXPECT_THREAD(shard_thread_name(p->index).c_str());
      submit(*p, [p] {
        p->worker->join_session();
        p->engine = std::make_unique<Engine>();
      });
    } else {
      submit(*p, [p] { p->engine = std::make_unique<Engine>(); });
    }
  }
  for (auto& sh : shards_) sh->worker->wait();
  try {
    rethrow_any();
  } catch (...) {
    release_workers();  // the dtor will not run for a throwing ctor
    throw;
  }
}

ShardGroup::~ShardGroup() { release_workers(); }

void ShardGroup::release_workers() noexcept {
  if (n_ == 1) return;
  // Engines and stores die where they were built.  A worker no other group
  // still borrows leaves the session with this last job and finishes it
  // uncontrolled; one still borrowed stays in the session.
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    const bool last = --p->worker->borrowers == 0;
    submit(*p, [p, last] {
      p->engine.reset();
      p->timeline.reset();
      if (last) p->worker->leave_session();
    });
  }
  for (auto& sh : shards_)
    if (sh->worker->borrowers > 0) sh->worker->wait();
#ifdef CCI_SCHED
  for (auto& sh : shards_)
    if (sh->worker->borrowers == 0)
      sched::await_thread_exit(shard_thread_name(sh->index).c_str());
#endif
  {
    CCI_SCHED_BLOCKED_SCOPE();
    for (auto& sh : shards_)
      if (sh->worker->borrowers == 0) sh->worker->wait_native();
  }
  for (auto& sh : shards_) sh->error = nullptr;
}

ShardGroup::Shard& ShardGroup::shard_at(int s) {
  assert(s >= 0 && s < n_);
  return *shards_[static_cast<std::size_t>(s)];
}

void ShardGroup::submit(Shard& sh, std::function<void()> task) {
  assert(!sh.task);
  sh.task = std::move(task);
  sh.worker->post(sh);
}

void ShardGroup::run_job(Shard& sh) {
  // The shard registry is the thread's Registry::global() for the job: the
  // engine's metric handles, every FlowModel built via with_shard(), and all
  // pool-stat channels bind into it.  The engine samples into the shard's
  // own timeline store, whose row blocks come from this thread's pool, so
  // the store is freed here too.
  obs::Registry::ScopedThreadLocal scope(*sh.registry);
  obs::ScopedRunSampling sampling(sh.sampling);
  try {
    sh.task();
  } catch (...) {
    // Read by the coordinator only after the worker hands the job back.
    sh.error = std::current_exception();
  }
  sh.task = nullptr;
}

void ShardGroup::rethrow_any() {
  // Every slot is cleared, so an error a higher shard raised alongside the
  // rethrown one never resurfaces from a later call.
  std::exception_ptr first;
  for (auto& sh : shards_) {
    if (!first) first = sh->error;
    sh->error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardGroup::with_shard(int s, const std::function<void(Engine&)>& fn) {
  Shard& sh = shard_at(s);
  if (n_ == 1) {
    fn(*sh.engine);
    return;
  }
  submit(sh, [&sh, &fn] { fn(*sh.engine); });
  sh.worker->wait();
  rethrow_any();
}

void ShardGroup::with_each_shard(const std::function<void(int, Engine&)>& fn) {
  if (n_ == 1) {
    fn(0, *shard_at(0).engine);
    return;
  }
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    submit(*p, [p, &fn] { fn(p->index, *p->engine); });
  }
  for (auto& sh : shards_) sh->worker->wait();
  rethrow_any();
}

Time ShardGroup::run(Time until) {
  if (n_ == 1) return shard_at(0).engine->run(until);
  until_ = until;
  done_ = false;
  failed_.store(false, std::memory_order_relaxed);
  timed_ = reg_->enabled();
  for (auto& sh : shards_) sh->health = Health{};
  plan_window();
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    submit(*p, [this, p] { run_windows(*p); });
  }
  for (auto& sh : shards_) sh->worker->wait();
  rethrow_any();
  publish_stats();
  Time t = 0.0;
  for (auto& sh : shards_) t = std::max(t, sh->engine->now());
  return t;
}

void ShardGroup::run_windows(Shard& sh) {
  // Every worker reads the same epoch here: it cannot move before all of
  // them have arrived at the first barrier.
  std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  std::exception_ptr error;
  while (!error) {
    const Time horizon = horizon_;
    try {
      if (timed_) {
        const Clock::time_point t0 = Clock::now();
        sh.engine->run(horizon);
        sh.health.busy_s += seconds_since(t0);
      } else {
        sh.engine->run(horizon);
      }
    } catch (const SimStalled& stalled) {
      // Re-throw with the shard/window context prepended: the engine's
      // own inspectors name blocked activities but cannot know which
      // shard or conservative window they were wedged in.
      std::vector<std::string> blocked;
      blocked.reserve(stalled.blocked().size() + 1);
      blocked.push_back("shard " + std::to_string(sh.index) + " wedged in window " +
                        std::to_string(stats_.windows) + " (horizon t=" +
                        std::to_string(horizon) + "s)");
      blocked.insert(blocked.end(), stalled.blocked().begin(), stalled.blocked().end());
      error = std::make_exception_ptr(SimStalled(stalled.reason(), stalled.at(),
                                                 stalled.events(), stalled.live_processes(),
                                                 std::move(blocked)));
    } catch (...) {
      error = std::current_exception();
    }
    if (error) failed_.store(true, std::memory_order_relaxed);
    arrive(sh, epoch++, error);
    if (done_) break;
  }
  if (error) std::rethrow_exception(error);
}

void ShardGroup::arrive(Shard& sh, std::uint64_t epoch, std::exception_ptr& error) {
  CCI_SCHED_POINT(kBarrierArrive, static_cast<std::uint64_t>(sh.index));
  // acq_rel: the last arrival sees every worker's window, failed_ included.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    arrived_.store(0, std::memory_order_relaxed);
    try {
      close_window();
    } catch (...) {
      // No shard failed in this window (close_window() checks first), so
      // this is the run's only error.
      error = std::current_exception();
      done_ = true;
    }
    {
      // Under the mutex, so a waiter between its check and its park
      // cannot miss the release.
      std::lock_guard<std::mutex> lk(barrier_mutex_);
      epoch_.store(epoch + 1, std::memory_order_release);
    }
    barrier_cv_.notify_all();
    return;
  }
  const auto released = [this, epoch] {
    return epoch_.load(std::memory_order_acquire) != epoch;
  };
  Clock::time_point t0;
  if (timed_) t0 = Clock::now();
#ifndef CCI_SCHED
  for (int i = 0; i < kBarrierSpins && !released(); ++i) cpu_relax();
#endif
  if (!released()) {
    std::unique_lock<std::mutex> lk(barrier_mutex_);
    CCI_SCHED_CV_WAIT(barrier_cv_, lk, static_cast<std::uint64_t>(sh.index), released);
  }
  if (timed_) {
    const double waited = seconds_since(t0);
    sh.health.wait_s += waited;
    sh.health.longest_wait_s = std::max(sh.health.longest_wait_s, waited);
  }
}

void ShardGroup::close_window() {
  if (failed_.load(std::memory_order_relaxed) || final_window_) {
    done_ = true;
    return;
  }
  ++stats_.windows;
  // Every other worker waits at the barrier: exchange boundary capacities
  // and let the lab observe the global fabric state before the next window.
  if (!boundaries_.empty()) exchange_boundaries(horizon_);
  if (barrier_probe_) barrier_probe_(horizon_);
  plan_window();
}

void ShardGroup::plan_window() {
  Time tmin = kNever;
  for (auto& sh : shards_) tmin = std::min(tmin, sh->engine->next_event_time());
  // Nothing left below the caller's horizon: the closing window advances
  // every clock (and sampler) to `until` and the run stops after it.
  final_window_ = tmin == kNever || tmin > until_;
  horizon_ = final_window_ || opts_.lookahead == kNever
                 ? until_
                 : std::min(until_, tmin + opts_.lookahead);
}

void ShardGroup::merge_obs(obs::Registry& dst) {
  if (n_ == 1) return;
  if (timeline_ != nullptr) fold_timelines();
  // A disabled destination records nothing, and merge_from would still
  // create every shard metric in it by name.
  if (!dst.enabled()) return;
  for (auto& sh : shards_) {
    dst.merge_from(*sh->registry);
    sh->registry->reset();
  }
}

void ShardGroup::fold_timelines() {
  // Shard stores are read, never modified, here: their row blocks belong
  // to the workers' pools.  A row's absolute index counts evicted rows.
  std::vector<std::vector<std::uint32_t>> mapped(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    for (const std::string& name : shards_[s]->timeline->series_names())
      mapped[s].push_back(timeline_->series("shard" + std::to_string(s) + "." + name));
  for (;;) {
    Shard* best = nullptr;
    double best_time = 0.0;
    for (auto& sh : shards_) {
      const obs::TimelineStore& store = *sh->timeline;
      sh->timeline_folded = std::max(sh->timeline_folded, store.dropped());
      if (sh->timeline_folded >= store.dropped() + store.size()) continue;
      const double t = store.row(sh->timeline_folded - store.dropped()).time;
      if (best == nullptr || t < best_time) {
        best = sh.get();
        best_time = t;
      }
    }
    if (best == nullptr) return;
    const obs::TimelineStore& store = *best->timeline;
    const obs::TimelineRow& row = store.row(best->timeline_folded++ - store.dropped());
    timeline_->append(row.time, mapped[static_cast<std::size_t>(best->index)][row.series],
                      row.value);
  }
}

int ShardGroup::add_boundary_link(double base_capacity) {
  Boundary b;
  b.base = base_capacity;
  boundaries_.push_back(std::move(b));
  return static_cast<int>(boundaries_.size()) - 1;
}

void ShardGroup::bind_boundary(int link, int shard, Resource* replica) {
  assert(link >= 0 && link < static_cast<int>(boundaries_.size()));
  assert(shard >= 0 && shard < n_);
  Boundary& b = boundaries_[static_cast<std::size_t>(link)];
  b.replicas.push_back({shard, replica, b.base});
}

void ShardGroup::exchange_boundaries(Time barrier) {
  for (Boundary& b : boundaries_) {
    double total = 0.0;
    for (const Boundary::Replica& r : b.replicas) total += r.res->load();
    // Small positive floor so a replica starved by remote load still makes
    // progress (and its load stays observable for the next exchange).
    const double floor = b.base / 1024.0;
    // Once within tolerance, snap to the target exactly: otherwise the
    // damped iteration approaches it forever, posting a capacity event at
    // every barrier and dragging empty trailing windows behind the run.
    const double tol = 1e-6 * b.base;
    for (Boundary::Replica& r : b.replicas) {
      const double others = total - r.res->load();
      double target = b.base - others;
      if (target < floor) target = floor;
      const double next =
          std::fabs(target - r.cap) <= tol ? target : r.cap + 0.5 * (target - r.cap);
      if (next == r.cap) continue;
      r.cap = next;
      Resource* res = r.res;
      shard_at(r.shard).engine->call_at(
          barrier, [res, next] { res->set_capacity(next); });
      ++stats_.exchanges;
    }
  }
}

void ShardGroup::publish_stats() {
  const auto flush = [](obs::Counter* c, std::uint64_t now, std::uint64_t& last) {
    if (now != last) {
      c->add(static_cast<double>(now - last));
      last = now;
    }
  };
  flush(obs_windows_, stats_.windows, published_.windows);
  flush(obs_exchanges_, stats_.exchanges, published_.exchanges);
  if (!timed_) return;
  for (auto& sh : shards_) {
    const std::string prefix = "host.shard." + std::to_string(sh->index);
    reg_->counter(prefix + ".busy_s").add(sh->health.busy_s);
    reg_->counter(prefix + ".wait_s").add(sh->health.wait_s);
    reg_->gauge(prefix + ".longest_wait_s").set(sh->health.longest_wait_s);
  }
}

}  // namespace cci::sim
