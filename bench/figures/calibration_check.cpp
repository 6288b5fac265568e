// Calibration self-check: re-verifies every number the model is
// calibrated against (§2.2/§3 anchors) and prints PASS/FAIL — run after
// touching any machine or network parameter.  Exits 1 on drift.
#include <cmath>
#include <cstdio>

#include "bench/registry.hpp"
#include "hw/frequency_governor.hpp"
#include "mpi/pingpong.hpp"

namespace cci::bench {
namespace {

void check(trace::Table& t, int& failures, const char* what, double measured, double expected,
           double tol_rel) {
  bool ok = std::abs(measured - expected) <= tol_rel * expected;
  if (!ok) ++failures;
  char m[32], e[32];
  std::snprintf(m, sizeof(m), "%.4g", measured);
  std::snprintf(e, sizeof(e), "%.4g", expected);
  t.add_text_row({what, m, e, ok ? "PASS" : "FAIL"});
}

double latency_at(double core_hz, double uncore_hz, int comm_core) {
  net::Cluster cluster(net::ClusterSpec{});
  for (int n = 0; n < 2; ++n) {
    if (core_hz > 0) cluster.machine(n).governor().pin_core_freq(core_hz);
    if (uncore_hz > 0) cluster.machine(n).governor().pin_uncore_freq(uncore_hz);
  }
  mpi::World world(cluster, {{0, comm_core}, {1, comm_core}});
  mpi::PingPongOptions opt;
  opt.bytes = 4;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  return trace::Stats::of(pp.latencies()).median;
}

double bandwidth_at(double uncore_hz) {
  net::Cluster cluster(net::ClusterSpec{});
  if (uncore_hz > 0)
    for (int n = 0; n < 2; ++n) cluster.machine(n).governor().pin_uncore_freq(uncore_hz);
  mpi::World world(cluster, {{0, 35}, {1, 35}});
  mpi::PingPongOptions opt;
  opt.bytes = 64 << 20;
  opt.iterations = 5;
  opt.warmup = 1;
  mpi::PingPong pp(world, 0, 1, opt);
  pp.start();
  cluster.engine().run();
  return trace::Stats::of(pp.bandwidths()).median;
}

int run(FigureContext& ctx) {
  int failures = 0;
  trace::Table t({"anchor", "measured", "paper", "status"});
  // §3.1 / Fig. 1a.
  check(t, failures, "4B latency us, core 2300 MHz (far)", latency_at(2.3e9, 0, 35) * 1e6, 1.8,
        0.10);
  check(t, failures, "4B latency us, core 1000 MHz (far)", latency_at(1.0e9, 0, 35) * 1e6, 3.1,
        0.10);
  // §4.3 quiet placements.
  check(t, failures, "4B latency us, ondemand near NIC", latency_at(0, 0, 8) * 1e6, 1.39, 0.10);
  check(t, failures, "4B latency us, ondemand far", latency_at(0, 0, 35) * 1e6, 1.67, 0.12);
  // Fig. 1b.
  check(t, failures, "64MB bandwidth GB/s, uncore 2400", bandwidth_at(2.4e9) / 1e9, 10.5, 0.05);
  check(t, failures, "64MB bandwidth GB/s, uncore 1200", bandwidth_at(1.2e9) / 1e9, 10.1, 0.05);
  // §3.3 turbo anchors.
  auto henri = hw::MachineConfig::henri();
  check(t, failures, "AVX512 turbo GHz, 4 cores",
        henri.turbo_freq(hw::VectorClass::kAvx512, 4) / 1e9, 3.0, 0.01);
  check(t, failures, "AVX512 turbo GHz, 18 cores",
        henri.turbo_freq(hw::VectorClass::kAvx512, 18) / 1e9, 2.3, 0.01);

  ctx.print(t, "calibration_check");
  ctx.out() << "\n" << (failures == 0 ? "ALL ANCHORS PASS" : "CALIBRATION DRIFT DETECTED")
            << " (" << failures << " failure(s))\n";
  return failures == 0 ? 0 : 1;
}

const FigureRegistrar reg("calibration_check", "Calibration",
                          "anchor values the model is calibrated against", run);

}  // namespace
}  // namespace cci::bench
