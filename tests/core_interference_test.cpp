// Integration tests: the paper's headline qualitative results must emerge
// from the model (§4, Fig. 4-7).  Bounds are intentionally loose — shapes,
// onsets and orderings, not absolute numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/interference_lab.hpp"
#include "kernels/primes.hpp"
#include "kernels/stream.hpp"
#include "kernels/tunable_triad.hpp"

namespace cci::core {
namespace {

Scenario base_scenario() {
  Scenario s;  // henri + EDR defaults
  s.kernel = kernels::triad_traits();
  s.comm_thread = Placement::kFarFromNic;
  s.data = Placement::kNearNic;
  s.pingpong_iterations = 30;
  s.pingpong_warmup = 3;
  s.compute_repetitions = 5;
  s.target_pass_seconds = 0.02;
  return s;
}

TEST(Interference, LatencyUnaffectedByFewMemoryBoundCores) {
  Scenario s = base_scenario();
  s.computing_cores = 5;
  s.message_bytes = 4;
  auto r = InterferenceLab(s).run();
  // Fig. 4a: no visible latency impact at 5 cores.
  EXPECT_LT(r.comm_together.latency.median, 1.25 * r.comm_alone.latency.median);
}

TEST(Interference, LatencyDegradesWithManyMemoryBoundCores) {
  Scenario s = base_scenario();
  s.computing_cores = 35;
  s.message_bytes = 4;
  auto r = InterferenceLab(s).run();
  // Fig. 4a: latency roughly doubles with all cores computing.
  EXPECT_GT(r.comm_together.latency.median, 1.5 * r.comm_alone.latency.median);
  EXPECT_LT(r.comm_together.latency.median, 3.5 * r.comm_alone.latency.median);
  // STREAM itself is NOT slowed by a 4-byte ping-pong.
  EXPECT_LT(r.compute_together.pass_duration.median,
            1.05 * r.compute_alone.pass_duration.median);
}

TEST(Interference, BandwidthDegradesEarlierThanLatency) {
  // Fig. 4b: the network bandwidth is already impacted at 5 computing
  // cores, while latency is not (previous test).
  Scenario s = base_scenario();
  s.computing_cores = 5;
  s.message_bytes = 64 << 20;
  s.pingpong_iterations = 4;
  s.pingpong_warmup = 1;
  auto r = InterferenceLab(s).run();
  EXPECT_LT(r.comm_together.bandwidth.median, 0.92 * r.comm_alone.bandwidth.median);
}

TEST(Interference, BandwidthLosesRoughlyTwoThirdsAtFullMachine) {
  Scenario s = base_scenario();
  s.computing_cores = 35;
  s.message_bytes = 64 << 20;
  s.pingpong_iterations = 4;
  s.pingpong_warmup = 1;
  auto r = InterferenceLab(s).run();
  double ratio = r.comm_together.bandwidth.median / r.comm_alone.bandwidth.median;
  // Paper: "reduced by almost two thirds".  Weighted max-min with the
  // onset calibrated at 3-4 cores lands somewhat deeper at full machine
  // (see EXPERIMENTS.md); the shape — severe loss, monotone in cores — holds.
  EXPECT_LT(ratio, 0.5);
  EXPECT_GT(ratio, 0.05);
}

TEST(Interference, StreamLosesUpToQuarterAgainstBigMessages) {
  // Fig. 4b / §4.3: STREAM loses at most ~25% (worst around 5 cores).
  Scenario s = base_scenario();
  s.computing_cores = 5;
  s.message_bytes = 64 << 20;
  s.pingpong_iterations = 6;
  s.pingpong_warmup = 1;
  s.compute_repetitions = 8;
  auto r = InterferenceLab(s).run();
  double ratio = r.compute_together.per_core_bandwidth.median /
                 r.compute_alone.per_core_bandwidth.median;
  EXPECT_LT(ratio, 0.97);
  EXPECT_GT(ratio, 0.6);
}

TEST(Interference, CpuBoundComputationDoesNotHurtCommunication) {
  // §3.2: prime counting (no memory traffic) leaves latency and bandwidth
  // intact; latency may even improve slightly via uncore.
  Scenario s = base_scenario();
  s.kernel = kernels::prime_traits();
  s.computing_cores = 20;
  s.message_bytes = 4;
  auto r = InterferenceLab(s).run();
  EXPECT_LT(r.comm_together.latency.median, 1.05 * r.comm_alone.latency.median);
}

TEST(Interference, DataFarFromNicDropsBandwidthMoreAbruptly) {
  // Table 1: with data far from the NIC the DMA crosses the socket link,
  // so contention hits bandwidth harder than with data near the NIC.
  auto run_with_data = [](Placement data) {
    Scenario s = base_scenario();
    s.data = data;
    s.computing_cores = 20;
    s.message_bytes = 64 << 20;
    s.pingpong_iterations = 4;
    s.pingpong_warmup = 1;
    auto r = InterferenceLab(s).run();
    return r.comm_together.bandwidth.median / r.comm_alone.bandwidth.median;
  };
  double near_ratio = run_with_data(Placement::kNearNic);
  double far_ratio = run_with_data(Placement::kFarFromNic);
  EXPECT_LT(far_ratio, near_ratio);
}

TEST(Interference, CommThreadNearNicSuffersLessLatencyContention) {
  // Table 1: latency increases highly only when the comm thread is far.
  auto run_with_thread = [](Placement thread) {
    Scenario s = base_scenario();
    s.comm_thread = thread;
    s.computing_cores = 35;
    s.message_bytes = 4;
    auto r = InterferenceLab(s).run();
    return r.comm_together.latency.median / r.comm_alone.latency.median;
  };
  double near_ratio = run_with_thread(Placement::kNearNic);
  double far_ratio = run_with_thread(Placement::kFarFromNic);
  EXPECT_LT(near_ratio, far_ratio);
}

class IntensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(IntensitySweep, HighIntensityRestoresBandwidth) {
  // Fig. 7b: below ~6 flop/B the bandwidth drops hard; well above it the
  // program is CPU-bound and communication returns to nominal.
  double ai = GetParam();
  Scenario s = base_scenario();
  int cursor = kernels::TunableTriad::cursor_for_intensity(ai);
  s.kernel = kernels::TunableTriad(16, cursor).traits();
  s.computing_cores = 35;
  s.message_bytes = 64 << 20;
  s.pingpong_iterations = 4;
  s.pingpong_warmup = 1;
  auto r = InterferenceLab(s).run();
  double ratio = r.comm_together.bandwidth.median / r.comm_alone.bandwidth.median;
  if (ai <= 1.0) {
    EXPECT_LT(ratio, 0.6) << "AI=" << ai;
  } else if (ai >= 30.0) {
    EXPECT_GT(ratio, 0.9) << "AI=" << ai;
  }
}

INSTANTIATE_TEST_SUITE_P(FlopPerByte, IntensitySweep,
                         ::testing::Values(0.25, 1.0, 30.0, 100.0));

TEST(Interference, RejectsComputingCoresOutsideTheMachine) {
  // One core hosts the communication thread, so henri's 36 cores leave 35
  // computing threads; asking for more used to run 35 silently.
  Scenario s = base_scenario();
  const int max_cores = s.machine.total_cores() - 1;
  for (int bad : {-1, max_cores + 1, s.machine.total_cores() + 8}) {
    s.computing_cores = bad;
    try {
      InterferenceLab lab(s);
      ADD_FAILURE() << "computing_cores = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("computing_cores"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(max_cores)), std::string::npos) << what;
    }
  }
  for (int ok : {0, max_cores}) {
    s.computing_cores = ok;
    EXPECT_NO_THROW(InterferenceLab lab(s)) << "computing_cores = " << ok;
  }
}

TEST(InterferenceSummary, BackwardsBandwidthWalkMatchesStatsOfBitwise) {
  // The lab derives bandwidths from the sorted latencies by walking them
  // backwards; the reference is the direct derivation over the samples in
  // measurement order, non-positive latencies dropped, then Stats::of.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937_64 rng(5);
  const std::size_t sizes[] = {0, 4, 4096, std::size_t{64} << 20};
  for (int round = 0; round < 40; ++round) {
    const std::size_t bytes = sizes[static_cast<std::size_t>(round) % 4];
    std::vector<double> lat;
    const std::size_t n = 1 + rng() % 300;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng() % 16;
      if (pick == 0 && round % 2 == 0) {
        lat.push_back(0.0);  // dropped: a zero-length iteration
      } else if (pick == 1 && round % 2 == 0) {
        lat.push_back(-1e-9);  // dropped: non-positive
      } else if (pick < 5 && !lat.empty()) {
        lat.push_back(lat[rng() % lat.size()]);  // a tie
      } else {
        lat.push_back(1e-7 + static_cast<double>(rng() % 1000000) * 1.37e-12);
      }
    }
    std::vector<double> bws;
    for (double l : lat)
      if (l > 0) bws.push_back(static_cast<double>(bytes) / l);
    const trace::Stats want = trace::Stats::of(bws);
    std::vector<double> sorted = lat;
    std::sort(sorted.begin(), sorted.end());
    const trace::Stats got = InterferenceLab::bandwidth_stats(sorted, bytes);
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(bits(got.median), bits(want.median));
    EXPECT_EQ(bits(got.decile1), bits(want.decile1));
    EXPECT_EQ(bits(got.decile9), bits(want.decile9));
    EXPECT_EQ(bits(got.mean), bits(want.mean));
    EXPECT_EQ(bits(got.min), bits(want.min));
    EXPECT_EQ(bits(got.max), bits(want.max));
  }
}

TEST(InterferenceSummary, AllNonPositiveLatenciesGiveEmptyBandwidth) {
  const trace::Stats s = InterferenceLab::bandwidth_stats({-2.0, -1.0, 0.0}, 4);
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.median, 0.0);
}

}  // namespace
}  // namespace cci::core
