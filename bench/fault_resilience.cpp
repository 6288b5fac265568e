// Fault-resilience sweep (google-benchmark): goodput and retransmit
// overhead of the reliable transport across loss rate x message size.
//
// The simulation is seeded and deterministic, so besides wall time the
// bench reports stable counters:
//   * retransmits_per_msg — retry pressure of the protocol (baselined by
//     tools/perf_guard.py: a structural regression in the retransmit path
//     shows up here, independent of runner speed);
//   * goodput_gbps — application-visible bandwidth under loss;
//   * delivered — fraction of messages that completed kOk.
// Loss 0 runs with force_reliable(true): same protocol, no faults — its
// retransmits_per_msg must stay exactly 0.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "mpi/pingpong.hpp"
#include "net/faults.hpp"
#include "obs/metrics.hpp"
#include "trace/stats.hpp"

using namespace cci;

namespace {

struct Outcome {
  double retransmits = 0.0;
  double goodput = 0.0;    // B/s, median over iterations
  double delivered = 1.0;  // fraction of sends that ended kOk
  int messages = 0;
};

Outcome run_sweep(double loss_prob, std::size_t bytes) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();

  net::Cluster cluster(net::ClusterSpec{});
  net::FaultInjector faults(cluster);
  if (loss_prob > 0.0)
    faults.loss_window(loss_prob, 0.0);
  else
    cluster.faults().force_reliable(true);  // identical protocol at loss 0

  mpi::World world(cluster, {{0, -1}, {1, -1}});
  mpi::PingPongOptions opt;
  opt.bytes = bytes;
  opt.iterations = 16;
  opt.warmup = 0;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();

  Outcome out;
  out.messages = 2 * opt.iterations;  // each iteration is a there-and-back
  out.retransmits = reg.counter("mpi.retransmits").value();
  const double timeouts = reg.counter("mpi.timeouts").value();
  out.delivered = 1.0 - timeouts / out.messages;
  out.goodput = trace::Stats::of(pp.bandwidths()).median;
  reg.set_enabled(was_enabled);
  return out;
}

void BM_FaultResilience(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  const std::size_t bytes = std::size_t{1} << state.range(1);
  Outcome out;
  for (auto _ : state) out = run_sweep(loss, bytes);
  state.counters["retransmits_per_msg"] =
      out.retransmits / static_cast<double>(out.messages);
  state.counters["goodput_gbps"] = out.goodput / 1e9;
  state.counters["delivered"] = out.delivered;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes) * out.messages);
}

// Loss 0%, 5%, 20% x 4 KiB (eager), 1 MiB (rendezvous), 64 MiB (long DMA).
BENCHMARK(BM_FaultResilience)->ArgsProduct({{0, 5, 20}, {12, 20, 26}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
