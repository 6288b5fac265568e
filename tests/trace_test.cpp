// Stats, tables, frequency traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trace/freq_trace.hpp"
#include "trace/stats.hpp"
#include "trace/table.hpp"

namespace cci::trace {
namespace {

TEST(Stats, MedianAndDeciles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  Stats s = Stats::of(v);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.decile1, 10.9, 1e-9);
  EXPECT_NEAR(s.decile9, 90.1, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

/// Field-by-field bit equality: EXPECT_EQ on doubles would let -0 pass
/// for +0 and miss nothing else, but "bitwise" is the contract here.
void expect_bitwise_equal(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.n, b.n);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.median), bits(b.median));
  EXPECT_EQ(bits(a.decile1), bits(b.decile1));
  EXPECT_EQ(bits(a.decile9), bits(b.decile9));
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.max), bits(b.max));
}

TEST(Stats, OfSortedMatchesOfOnAnyShuffleBitwise) {
  // Wide dynamic range and repeated values: the mean's rounding depends on
  // summation order, so this only holds because both sum in sorted order.
  std::mt19937_64 rng(11);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = round < 3 ? static_cast<std::size_t>(round) : 1 + rng() % 500;
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng() % 4 == 0) {
        samples.push_back(samples[rng() % samples.size()]);  // a tie
        continue;
      }
      const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
      samples.push_back(std::ldexp(1.0 + u, static_cast<int>(rng() % 60) - 30));
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::shuffle(samples.begin(), samples.end(), rng);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_bitwise_equal(Stats::of_sorted(sorted), Stats::of(samples));
  }
}

TEST(Stats, EmptyAndSingleton) {
  Stats empty = Stats::of({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.median, 0.0);
  Stats one = Stats::of({7.0});
  EXPECT_EQ(one.median, 7.0);
  EXPECT_EQ(one.decile1, 7.0);
  EXPECT_EQ(one.decile9, 7.0);
}

TEST(Table, AlignedOutputContainsData) {
  Table t({"cores", "latency"});
  t.add_row({1.0, 1.5e-6});
  t.add_row({36.0, 3.0e-6});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("cores"), std::string::npos);
  EXPECT_NE(os.str().find("36"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("cores,latency"), std::string::npos);
}

TEST(Formatters, HumanReadableUnits) {
  EXPECT_EQ(format_time(1.5e-6), "1.50 us");
  EXPECT_EQ(format_time(2.5e-3), "2.50 ms");
  EXPECT_EQ(format_bw(10.5e9), "10.50 GB/s");
  EXPECT_EQ(format_bytes(64.0 * (1 << 20)), "64 MB");
}

TEST(FreqTrace, RecordsGovernorTransitions) {
  sim::Engine engine;
  sim::FlowModel model(engine);
  hw::Machine machine(model, hw::MachineConfig::henri());
  FreqTrace trace(machine);
  engine.call_at(1.0, [&] { machine.governor().core_busy(0, hw::VectorClass::kScalar); });
  engine.call_at(2.0, [&] { machine.governor().core_idle(0); });
  engine.run();
  EXPECT_DOUBLE_EQ(trace.freq_at(0, 0.5), 1.0e9);   // idle min
  EXPECT_DOUBLE_EQ(trace.freq_at(0, 1.5), 3.7e9);   // single-core turbo
  EXPECT_DOUBLE_EQ(trace.freq_at(0, 2.5), 1.0e9);   // idle again
  auto sampled = trace.sample(0.0, 3.0, 0.5, 1);
  ASSERT_EQ(sampled.times.size(), 7u);
  EXPECT_DOUBLE_EQ(sampled.core_freqs[0][2], 3.7e9);  // t=1.0
}

}  // namespace
}  // namespace cci::trace
