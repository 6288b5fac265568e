// Observability overhead guard (google-benchmark): the same simulated
// workload with the obs registry disabled, metrics-only, and full tracing.
//
// The contract documented in docs/OBSERVABILITY.md is that a disabled
// registry costs one predictable branch per instrumentation site — run
// BM_PingPong/disabled against BM_PingPong/baseline-era numbers (or the
// git history of this file) and the gap must stay below ~5%.
#include <benchmark/benchmark.h>

#include "mpi/pingpong.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

using namespace cci;

namespace {

enum class ObsMode { kDisabled, kMetrics, kTracing };

void run_pingpong_workload() {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  mpi::PingPongOptions opt;
  opt.bytes = 4;
  opt.iterations = 100;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  benchmark::DoNotOptimize(pp.latencies().data());
}

void BM_PingPong(benchmark::State& state) {
  auto mode = static_cast<ObsMode>(state.range(0));
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(mode != ObsMode::kDisabled);
  reg.tracer().set_enabled(mode == ObsMode::kTracing);
  for (auto _ : state) {
    run_pingpong_workload();
    if (mode == ObsMode::kTracing) reg.tracer().clear();  // bound memory
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  reg.reset();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);
}
BENCHMARK(BM_PingPong)
    ->Arg(static_cast<int>(ObsMode::kDisabled))
    ->Arg(static_cast<int>(ObsMode::kMetrics))
    ->Arg(static_cast<int>(ObsMode::kTracing))
    ->ArgNames({"mode(0=off,1=metrics,2=trace)"});

// Sampler overhead on the ping-pong workload.  mode 0: the engine is
// built with the ambient sampling off, so it has no sampler — it pays one
// pointer test per event and the timeline must stay exactly empty
// (sampler_rows is a zero baseline in bench/baselines/micro_obs_sampler.json,
// guarded at tolerance 0).  mode 1: the engine is built inside an
// obs::ScopedRunSampling at a 10 us simulated period and samples into the
// store itself — sampler_rows is a fixed-seed deterministic row count; a
// growth means a metric started churning every tick (or the deny lists
// stopped filtering), not noise.
void BM_SamplerPingPong(benchmark::State& state) {
  const bool attached = state.range(0) != 0;
  auto& reg = obs::Registry::global();
  double rows = 0.0;
  double ticks = 0.0;
  for (auto _ : state) {
    // Reset totals every iteration so each one feeds the sampler the same
    // deltas — the row count is then identical across iterations.
    reg.reset();
    reg.set_enabled(true);
    obs::TimelineStore store;
    obs::RunSampling rs;
    if (attached) {
      rs.timeline_period = 1e-5;
      rs.timeline = &store;
    }
    obs::ScopedRunSampling sampling(rs);
    net::Cluster cluster(net::ClusterSpec{});
    mpi::World world(cluster, {{0, -1}, {1, -1}});
    mpi::PingPongOptions opt;
    opt.bytes = 4;
    opt.iterations = 100;
    mpi::PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().run();
    rows = static_cast<double>(store.size());
    const obs::Sampler* sampler = cluster.engine().sampler();
    ticks = sampler != nullptr ? static_cast<double>(sampler->samples_taken()) : 0.0;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["sampler_rows"] = rows;
  state.counters["sampler_ticks"] = ticks;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  reg.reset();
  reg.set_enabled(false);
}
BENCHMARK(BM_SamplerPingPong)->Arg(0)->Arg(1)->ArgNames({"sampler"});

void BM_CounterAdd(benchmark::State& state) {
  // The single-site cost: one branch + one add when enabled, one branch
  // when disabled.
  obs::Registry reg;
  reg.set_enabled(state.range(0) != 0);
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add(1.0);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterAdd)->Arg(0)->Arg(1)->ArgNames({"enabled"});

void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Histogram& h = reg.histogram("bench.histogram");
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.001 : 1e-6;  // sweep buckets
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
