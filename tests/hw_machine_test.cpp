// Machine topology, path resolution, contention pressure, latency model.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "hw/frequency_governor.hpp"
#include "hw/workload.hpp"

namespace cci::hw {
namespace {

class HenriMachine : public ::testing::Test {
 protected:
  HenriMachine() : model(engine), machine(model, MachineConfig::henri()) {}
  sim::Engine engine;
  sim::FlowModel model;
  Machine machine;
};

TEST_F(HenriMachine, TopologyCounts) {
  const auto& cfg = machine.config();
  EXPECT_EQ(cfg.total_cores(), 36);
  EXPECT_EQ(cfg.numa_count(), 4);
  EXPECT_EQ(cfg.numa_of_core(0), 0);
  EXPECT_EQ(cfg.numa_of_core(8), 0);
  EXPECT_EQ(cfg.numa_of_core(9), 1);
  EXPECT_EQ(cfg.numa_of_core(35), 3);
  EXPECT_EQ(cfg.socket_of_core(17), 0);
  EXPECT_EQ(cfg.socket_of_core(18), 1);
  EXPECT_EQ(cfg.socket_of_numa(1), 0);
  EXPECT_EQ(cfg.socket_of_numa(2), 1);
}

TEST_F(HenriMachine, AllPresetsAreSelfConsistent) {
  for (const auto& cfg : MachineConfig::all_presets()) {
    EXPECT_GT(cfg.total_cores(), 0) << cfg.name;
    EXPECT_GT(cfg.mem_bw_per_numa, 0.0) << cfg.name;
    EXPECT_GT(cfg.per_core_mem_bw, 0.0) << cfg.name;
    EXPECT_LE(cfg.core_freq_min_hz, cfg.core_freq_nominal_hz) << cfg.name;
    EXPECT_LE(cfg.uncore_freq_min_hz, cfg.uncore_freq_max_hz) << cfg.name;
    EXPECT_LT(cfg.nic_numa, cfg.numa_count()) << cfg.name;
    EXPECT_FALSE(cfg.turbo_scalar.empty()) << cfg.name;
    // Turbo tables must be monotone: more active cores, lower (or equal) clock.
    for (std::size_t i = 1; i < cfg.turbo_scalar.size(); ++i) {
      EXPECT_LT(cfg.turbo_scalar[i - 1].max_active_cores, cfg.turbo_scalar[i].max_active_cores);
      EXPECT_GE(cfg.turbo_scalar[i - 1].freq_hz, cfg.turbo_scalar[i].freq_hz);
    }
  }
}

TEST_F(HenriMachine, MemPathLocalCrossesOnlyController) {
  auto path = machine.mem_path(0, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], machine.mem_ctrl(0));
}

TEST_F(HenriMachine, MemPathSameSocketCrossesMesh) {
  auto path = machine.mem_path(1, 0);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], machine.mem_ctrl(0));
  EXPECT_EQ(path[1], machine.intra_link(0));
}

TEST_F(HenriMachine, MemPathCrossSocketCrossesUpi) {
  auto path = machine.mem_path(3, 0);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], machine.mem_ctrl(0));
  EXPECT_EQ(path[1], machine.cross_link());
}

TEST_F(HenriMachine, UncontendedLatencyLowerThanRemote) {
  double local = machine.mem_access_latency(0, 0);
  double same_socket = machine.mem_access_latency(1, 0);
  double cross = machine.mem_access_latency(3, 0);
  EXPECT_LT(local, same_socket);
  EXPECT_LT(same_socket, cross);
}

TEST_F(HenriMachine, ContentionInflatesAccessLatency) {
  double quiet = machine.mem_access_latency(3, 0);
  // Saturate NUMA 0's controller with remote STREAM-like flows from socket 1.
  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  for (int c = 18; c < 27; ++c) {
    auto spec = make_compute_spec(machine, c, 0, triad, 1e12);
    model.start(spec);
  }
  engine.run(0.0);  // let allocation settle at t=0
  double loud = machine.mem_access_latency(3, 0);
  EXPECT_GT(loud, 1.3 * quiet);
}

TEST_F(HenriMachine, ComputeSpecRooflineMemoryBound) {
  // TRIAD on one core: per-core cap 12 GB/s over 24 B/iter -> 500 Miter/s.
  machine.governor().set_policy(CpuPolicy::kPerformance);
  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  auto spec = make_compute_spec(machine, 0, 0, triad, 500e6);
  auto act = model.start(spec);
  engine.run();
  EXPECT_NEAR(act->duration(), 1.0, 0.05);
}

TEST_F(HenriMachine, ComputeSpecCpuBoundScalesWithFrequency) {
  // Pure-flop kernel: duration == iters * cycles_per_iter / freq.
  machine.governor().pin_core_freq(1.0e9);
  KernelTraits flops{"flops", 8.0, 0.0, VectorClass::kScalar};  // 4 cycles/iter
  auto a = model.start(make_compute_spec(machine, 0, 0, flops, 1e9));
  engine.run();
  EXPECT_NEAR(a->duration(), 4.0, 1e-6);
  machine.governor().pin_core_freq(2.0e9);
  auto b = model.start(make_compute_spec(machine, 0, 0, flops, 1e9));
  engine.run();
  EXPECT_NEAR(b->duration(), 2.0, 1e-6);
}

TEST_F(HenriMachine, ManyCoresOnOneNumaShareTheController) {
  machine.governor().set_policy(CpuPolicy::kPerformance);
  KernelTraits triad{"triad", 2.0, 24.0, VectorClass::kSse};
  // 9 cores * 12 GB/s demand = 108 > 45 GB/s controller -> each ~5 GB/s.
  std::vector<sim::ActivityPtr> acts;
  double iters = 45e9 / 24.0 / 9.0;  // sized so total runtime ~1 s
  for (int c = 0; c < 9; ++c) {
    machine.governor().core_busy(c, VectorClass::kSse);  // raises uncore to max
    acts.push_back(model.start(make_compute_spec(machine, c, 0, triad, iters)));
  }
  engine.run();
  for (const auto& a : acts) EXPECT_NEAR(a->duration(), 1.0, 0.05);
}

// ---- frequency governor ---------------------------------------------------

class Governor : public ::testing::Test {
 protected:
  Governor() : model(engine), machine(model, MachineConfig::henri()) {}
  sim::Engine engine;
  sim::FlowModel model;
  Machine machine;
};

TEST_F(Governor, OndemandIdlesAtMinFrequency) {
  auto& gov = machine.governor();
  for (int c = 0; c < 36; ++c) EXPECT_DOUBLE_EQ(gov.core_freq(c), 1.0e9);
}

TEST_F(Governor, BusyCoreTurbosByActiveCount) {
  auto& gov = machine.governor();
  gov.core_busy(0, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 3.7e9);  // 1 active core
  gov.core_busy(1, VectorClass::kScalar);
  gov.core_busy(2, VectorClass::kScalar);
  gov.core_busy(3, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 3.5e9);  // 4 active cores
  for (int c = 4; c < 18; ++c) gov.core_busy(c, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 3.0e9);  // all 18 on socket 0
  // Socket 1 unaffected.
  gov.core_busy(18, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.core_freq(18), 3.7e9);
}

TEST_F(Governor, Avx512LicenceDownclocks) {
  auto& gov = machine.governor();
  for (int c = 0; c < 4; ++c) gov.core_busy(c, VectorClass::kAvx512);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 3.0e9);  // paper Fig. 3b
  for (int c = 4; c < 18; ++c) gov.core_busy(c, VectorClass::kAvx512);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 2.3e9);  // paper Fig. 3c
}

TEST_F(Governor, CommCoreHoldsStableFrequency) {
  auto& gov = machine.governor();
  gov.core_comm(35);
  double before = gov.core_freq(35);
  EXPECT_DOUBLE_EQ(before, 2.5e9);
  // Heavy AVX512 load on the *other* socket must not move the comm core.
  for (int c = 0; c < 18; ++c) gov.core_busy(c, VectorClass::kAvx512);
  EXPECT_DOUBLE_EQ(gov.core_freq(35), before);
}

TEST_F(Governor, TurboDisabledCapsAtNominal) {
  auto& gov = machine.governor();
  gov.set_turbo_enabled(false);
  gov.core_busy(0, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 2.3e9);
}

TEST_F(Governor, UserspacePinsEverything) {
  auto& gov = machine.governor();
  gov.pin_core_freq(1.0e9);
  gov.core_busy(0, VectorClass::kAvx512);
  EXPECT_DOUBLE_EQ(gov.core_freq(0), 1.0e9);
  EXPECT_DOUBLE_EQ(gov.core_freq(20), 1.0e9);
}

TEST_F(Governor, CoreResourceCapacityTracksFrequency) {
  auto& gov = machine.governor();
  gov.core_busy(5, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(machine.core(5)->capacity(), gov.core_freq(5));
  gov.core_idle(5);
  EXPECT_DOUBLE_EQ(machine.core(5)->capacity(), 1.0e9);
}

TEST_F(Governor, UncoreRisesWithSocketActivityAndScalesMemory) {
  auto& gov = machine.governor();
  EXPECT_DOUBLE_EQ(gov.uncore_freq(0), machine.config().uncore_freq_min_hz);
  double cap_idle = machine.mem_ctrl(0)->capacity();
  gov.core_busy(0, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.uncore_freq(0), machine.config().uncore_freq_max_hz);
  double cap_busy = machine.mem_ctrl(0)->capacity();
  EXPECT_GT(cap_busy, cap_idle);
  EXPECT_DOUBLE_EQ(cap_busy, machine.config().mem_bw_per_numa);
  EXPECT_NEAR(cap_idle / cap_busy, machine.config().uncore_min_mem_scale, 1e-12);
}

TEST_F(Governor, PinnedUncoreIgnoresActivity) {
  auto& gov = machine.governor();
  gov.pin_uncore_freq(1.2e9);
  gov.core_busy(0, VectorClass::kScalar);
  EXPECT_DOUBLE_EQ(gov.uncore_freq(0), 1.2e9);
}

TEST_F(Governor, TraceReportsTransitions) {
  auto& gov = machine.governor();
  std::vector<std::pair<int, double>> events;
  gov.set_trace([&](int core, double hz) { events.emplace_back(core, hz); });
  gov.core_busy(3, VectorClass::kScalar);
  bool saw_core3 = false;
  bool saw_uncore0 = false;
  for (auto& [core, hz] : events) {
    if (core == 3 && hz == 3.7e9) saw_core3 = true;
    if (core == -1 && hz == 2.4e9) saw_uncore0 = true;
  }
  EXPECT_TRUE(saw_core3);
  EXPECT_TRUE(saw_uncore0);
}

TEST(MachineValidation, EveryPresetConstructs) {
  for (const MachineConfig& cfg : MachineConfig::all_presets()) {
    sim::Engine engine;
    sim::FlowModel model(engine);
    EXPECT_NO_THROW(Machine(model, cfg, "node0.")) << cfg.name;
  }
}

TEST(MachineValidation, OneBrokenFieldAtATimeThrowsBeforeBuilding) {
  struct Break {
    std::string what;
    std::function<void(MachineConfig&)> apply;
  };
  std::vector<Break> breaks = {
      {"sockets=1", [](MachineConfig& c) { c.sockets = 1; }},
      {"sockets=4", [](MachineConfig& c) { c.sockets = 4; }},
      {"numa_per_socket=0", [](MachineConfig& c) { c.numa_per_socket = 0; }},
      {"numa_per_socket=-1", [](MachineConfig& c) { c.numa_per_socket = -1; }},
      {"cores_per_numa=0", [](MachineConfig& c) { c.cores_per_numa = 0; }},
      {"nic_numa=-1", [](MachineConfig& c) { c.nic_numa = -1; }},
      {"nic_numa=numa_count", [](MachineConfig& c) { c.nic_numa = c.numa_count(); }},
  };
  // Every capacity field, each negative, NaN and infinite in turn.
  const std::vector<std::pair<std::string, double MachineConfig::*>> capacities = {
      {"core_freq_min_hz", &MachineConfig::core_freq_min_hz},
      {"core_freq_nominal_hz", &MachineConfig::core_freq_nominal_hz},
      {"comm_core_freq_hz", &MachineConfig::comm_core_freq_hz},
      {"uncore_freq_min_hz", &MachineConfig::uncore_freq_min_hz},
      {"uncore_freq_max_hz", &MachineConfig::uncore_freq_max_hz},
      {"uncore_min_mem_scale", &MachineConfig::uncore_min_mem_scale},
      {"mem_bw_per_numa", &MachineConfig::mem_bw_per_numa},
      {"cross_socket_bw", &MachineConfig::cross_socket_bw},
      {"intra_socket_bw", &MachineConfig::intra_socket_bw},
  };
  const double bad_values[] = {-1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (const auto& [field, member] : capacities)
    for (double v : bad_values)
      breaks.push_back({field + "=" + std::to_string(v),
                        [member = member, v](MachineConfig& c) { c.*member = v; }});
  for (double v : bad_values)
    breaks.push_back({"turbo_avx512[0]=" + std::to_string(v),
                      [v](MachineConfig& c) { c.turbo_avx512.at(0).freq_hz = v; }});

  for (const MachineConfig& preset : MachineConfig::all_presets()) {
    for (const Break& b : breaks) {
      MachineConfig cfg = preset;
      b.apply(cfg);
      sim::Engine engine;
      sim::FlowModel model(engine);
      EXPECT_THROW(Machine(model, cfg, "node0."), std::invalid_argument)
          << preset.name << ": " << b.what;
      EXPECT_EQ(model.solver().resource_count(), 0u) << preset.name << ": " << b.what;
    }
  }
}

}  // namespace
}  // namespace cci::hw
