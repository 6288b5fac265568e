#include "runtime/distributed.hpp"

#include <utility>

namespace cci::runtime {

DistributedRuntime::DistributedRuntime(mpi::World& world, const RuntimeConfig& config,
                                       DistributedOptions options)
    : world_(world), opts_(options), coll_(world) {
  for (int r = 0; r < world.size(); ++r)
    rt_.push_back(std::make_unique<Runtime>(world, r, config));
  failure_ = std::make_unique<sim::OneShotEvent>(engine());
  stop_ = std::make_unique<sim::OneShotEvent>(engine());
  last_heard_.assign(static_cast<std::size_t>(ranks()), 0.0);
  dead_.assign(static_cast<std::size_t>(ranks()), false);
}

void DistributedRuntime::declare_dead(int r, const std::string& why) {
  if (dead_.at(static_cast<std::size_t>(r))) return;
  dead_[static_cast<std::size_t>(r)] = true;
  if (dead_rank_ < 0) dead_rank_ = r;
  diagnostic_ = "rank " + std::to_string(r) + ": " + why + " (declared at t=" +
                std::to_string(engine().now()) + "s)";
  failure_->set();
}

void DistributedRuntime::kill_rank(int r, double at) {
  rt_.at(static_cast<std::size_t>(r))->arm_failover();
  engine().call_at(at, [this, r] {
    rt_[static_cast<std::size_t>(r)]->halt();
    if (opts_.heartbeat_interval <= 0.0)
      declare_dead(r, "killed (no heartbeat detection armed)");
  });
}

// ---- heartbeats ------------------------------------------------------------

sim::Coro DistributedRuntime::hb_sender(int r) {
  const double dt = opts_.heartbeat_interval;
  while (!stop_->is_set() && !rt_[static_cast<std::size_t>(r)]->halted()) {
    co_await engine().sleep(dt);
    if (stop_->is_set() || rt_[static_cast<std::size_t>(r)]->halted()) break;
    // Fire-and-forget liveness message; a dead rank simply goes silent.
    world_.isend(r, 0, opts_.heartbeat_tag_base + r, mpi::MsgView{8, 0, 0});
  }
}

sim::Coro DistributedRuntime::hb_monitor(int r) {
  while (!stop_->is_set()) {
    mpi::RequestPtr req = world_.irecv(0, r, opts_.heartbeat_tag_base + r, mpi::MsgView{8, 0, 0});
    sim::WhenAny beat_or_stop = sim::when_any(engine(), {&req->done(), stop_.get()});
    co_await beat_or_stop;
    if (!req->done().is_set()) break;  // stopping; the posted recv is abandoned
    last_heard_[static_cast<std::size_t>(r)] = engine().now();
  }
}

sim::Coro DistributedRuntime::hb_checker() {
  const double timeout = opts_.failure_timeout_factor * opts_.heartbeat_interval;
  while (!stop_->is_set() && !failure_->is_set()) {
    co_await engine().sleep(opts_.heartbeat_interval);
    if (stop_->is_set()) break;
    for (int r = 1; r < ranks(); ++r) {
      if (dead_[static_cast<std::size_t>(r)]) continue;
      const double silent = engine().now() - last_heard_[static_cast<std::size_t>(r)];
      if (silent > timeout)
        declare_dead(r, "no heartbeat for " + std::to_string(silent) + "s (timeout " +
                            std::to_string(timeout) + "s)");
    }
  }
}

void DistributedRuntime::start_heartbeats() {
  if (hb_started_ || opts_.heartbeat_interval <= 0.0) return;
  hb_started_ = true;
  const double now = engine().now();
  for (auto& t : last_heard_) t = now;  // grace period: nobody is late yet
  for (int r = 1; r < ranks(); ++r) {
    engine().spawn(hb_sender(r));
    engine().spawn(hb_monitor(r));
  }
  engine().spawn(hb_checker());
}

// ---- join ------------------------------------------------------------------

sim::Coro DistributedRuntime::failure_aware_join(std::vector<sim::OneShotEvent*> events) {
  for (auto* e : events) {
    sim::WhenAny done_or_fail = sim::when_any(engine(), {e, failure_.get()});
    co_await done_or_fail;
    if (failure_->is_set()) break;  // abort: stop waiting on the dead
  }
  stop_->set();
  for (auto& r : rt_)
    if (!r->halted()) r->shutdown();
}

DistributedRuntime::Report DistributedRuntime::run_to_completion() {
  start_heartbeats();
  const double t0 = engine().now();
  std::vector<sim::OneShotEvent*> done;
  done.reserve(rt_.size());
  for (auto& r : rt_) done.push_back(&r->run());
  engine().spawn(failure_aware_join(std::move(done)));
  engine().run();

  Report rep;
  rep.completed = !failure_->is_set();
  rep.dead_rank = dead_rank_;
  rep.diagnostic = diagnostic_;
  rep.makespan = engine().now() - t0;
  return rep;
}

// ---- barrier ---------------------------------------------------------------

sim::Coro DistributedRuntime::barrier(int rank, sim::OneShotEvent* done, bool* aborted) {
  barrier_events_.push_back(std::make_unique<sim::OneShotEvent>(engine()));
  sim::OneShotEvent* inner = barrier_events_.back().get();
  engine().spawn(coll_.barrier(rank, inner));
  sim::WhenAny done_or_fail = sim::when_any(engine(), {inner, failure_.get()});
  co_await done_or_fail;
  if (aborted != nullptr) *aborted = !inner->is_set();
  if (done != nullptr) done->set();
}

}  // namespace cci::runtime
