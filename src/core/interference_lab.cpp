#include "core/interference_lab.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"

namespace cci::core {

InterferenceLab::InterferenceLab(Scenario scenario)
    : scenario_(std::move(scenario)), attribution_(obs::run_sampling().attribution) {
  const int max_cores = scenario_.machine.total_cores() - 1;
  if (scenario_.computing_cores < 0 || scenario_.computing_cores > max_cores)
    throw std::invalid_argument(
        "InterferenceLab: computing_cores = " + std::to_string(scenario_.computing_cores) +
        " is outside [0, total_cores() - 1 = " + std::to_string(max_cores) +
        "] for machine '" + scenario_.machine.name +
        "' (one core hosts the communication thread)");
  cluster_ = std::make_unique<net::Cluster>(net::ClusterSpec{
      scenario_.machine, scenario_.network, scenario_.topology, /*nodes=*/2, scenario_.seed});
  int comm = scenario_.comm_core();
  world_ = std::make_unique<mpi::World>(*cluster_, std::vector<mpi::RankConfig>{
                                                       {0, comm}, {1, comm}});
}

InterferenceLab::~InterferenceLab() = default;

std::unique_ptr<ComputeTeam> InterferenceLab::make_team(int node) {
  ComputeTeam::Options opt;
  opt.cores = scenario_.compute_cores();
  opt.data_numa = scenario_.data_numa();
  opt.kernel = scenario_.kernel;
  opt.iters_per_pass = scenario_.iters_per_pass();
  opt.repetitions = scenario_.compute_repetitions;
  return std::make_unique<ComputeTeam>(cluster_->machine(node), std::move(opt),
                                       cluster_->rng());
}

ComputePhase InterferenceLab::summarize(const ComputeTeam& team) {
  ComputePhase phase;
  phase.pass_duration = trace::Stats::of(team.pass_durations());
  phase.per_core_bandwidth = trace::Stats::of(team.per_core_bandwidths());
  phase.mem_stall_fraction = team.mem_stall_fraction();
  return phase;
}

trace::Stats InterferenceLab::bandwidth_stats(const std::vector<double>& sorted_latencies,
                                              std::size_t bytes) {
  // IEEE division rounds monotonically, so bytes / lat never increases as
  // lat grows: the positive latencies read backwards give the bandwidths
  // already ascending, with no second sort and no bandwidth array.
  // Non-positive latencies sit at the front, past the end of the walk.
  const std::size_t last = sorted_latencies.size() - 1;
  const auto n = static_cast<std::size_t>(
      sorted_latencies.end() -
      std::upper_bound(sorted_latencies.begin(), sorted_latencies.end(), 0.0));
  return trace::Stats::of_sorted(n, [&](std::size_t i) {
    return static_cast<double>(bytes) / sorted_latencies[last - i];
  });
}

CommPhase InterferenceLab::summarize(std::vector<double> latencies, std::size_t bytes) {
  // Sorted in place: a side-by-side phase can hold a few hundred thousand
  // samples, and the summary makes no copy of them.
  std::sort(latencies.begin(), latencies.end());
  CommPhase phase;
  phase.latency = trace::Stats::of_sorted(latencies);
  phase.bandwidth = bandwidth_stats(latencies, bytes);
  return phase;
}

CommPhase InterferenceLab::run_comm_alone(int tag_base) {
  mpi::PingPongOptions opt;
  opt.bytes = scenario_.message_bytes;
  opt.iterations = scenario_.pingpong_iterations;
  opt.warmup = scenario_.pingpong_warmup;
  opt.tag = tag_base;
  opt.data_numa_a = scenario_.data_numa();
  opt.data_numa_b = scenario_.data_numa();
  mpi::PingPong pp(*world_, 0, 1, opt);
  pp.start();
  cluster_->engine().run();
  return summarize(pp.take_latencies(), opt.bytes);
}

ComputePhase InterferenceLab::run_compute_alone() {
  if (scenario_.computing_cores <= 0) return {};
  auto team0 = make_team(0);
  auto team1 = make_team(1);
  team0->start();
  team1->start();
  cluster_->engine().run();
  return summarize(*team0);
}

void InterferenceLab::run_together(ComputePhase& compute, CommPhase& comm, int tag_base) {
  mpi::PingPongOptions opt;
  opt.bytes = scenario_.message_bytes;
  opt.iterations = scenario_.pingpong_iterations;
  opt.warmup = scenario_.pingpong_warmup;
  opt.tag = tag_base;
  opt.data_numa_a = scenario_.data_numa();
  opt.data_numa_b = scenario_.data_numa();
  opt.continuous = scenario_.computing_cores > 0;
  mpi::PingPong pp(*world_, 0, 1, opt);

  if (scenario_.computing_cores <= 0) {
    pp.start();
    cluster_->engine().run();
    compute = {};
    comm = summarize(pp.take_latencies(), opt.bytes);
    return;
  }

  auto team0 = make_team(0);
  auto team1 = make_team(1);
  pp.start();
  team0->start();
  team1->start();
  // Stop the ping-pong once both compute teams have finished (the paper
  // measures communication while computation is in flight).
  cluster_->engine().spawn([](ComputeTeam& a, ComputeTeam& b, mpi::PingPong& p) -> sim::Coro {
    co_await a.done();
    co_await b.done();
    p.request_stop();
  }(*team0, *team1, pp));
  cluster_->engine().run();
  compute = summarize(*team0);
  comm = summarize(pp.take_latencies(), opt.bytes);
}

SideBySideResult InterferenceLab::run() {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("core.lab.protocol_runs").add(1);
  obs::Tracer& tracer = reg.tracer();
  const obs::TrackId track = tracer.track("lab.phases");
  sim::Engine& engine = cluster_->engine();
  auto phase_span = [&](const char* name, sim::Time t0) {
    if (tracer.on()) tracer.span(track, name, t0, engine.now());
  };

  SideBySideResult result;
  sim::Time t0 = engine.now();
  result.compute_alone = run_compute_alone();
  phase_span("compute_alone", t0);
  t0 = engine.now();
  result.comm_alone = run_comm_alone(1000);
  phase_span("comm_alone", t0);
  t0 = engine.now();
  // The attribution profiler observes only the side-by-side phase: the
  // alone phases are contention-free by construction, so their inclusion
  // would just dilute the matrix with isolated time.
  sim::InterferenceProfiler profiler;
  if (attribution_) cluster_->model().set_profiler(&profiler);
  run_together(result.compute_together, result.comm_together, 2000);
  if (attribution_) {
    cluster_->model().set_profiler(nullptr);
    result.attribution = profiler.report();
  }
  phase_span("side_by_side", t0);
  return result;
}

}  // namespace cci::core
