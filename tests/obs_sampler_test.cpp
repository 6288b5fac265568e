// Simulated-time sampler + timeline store: tick grid, delta semantics,
// deny lists, ring bound, and byte-stable CSV export.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

namespace cci::obs {
namespace {

// --- TimelineStore ----------------------------------------------------------

TEST(TimelineStore, InternsSeriesOnce) {
  TimelineStore store;
  const std::uint32_t a = store.series("a");
  EXPECT_EQ(store.series("b"), a + 1);
  EXPECT_EQ(store.series("a"), a);
  ASSERT_EQ(store.series_names().size(), 2u);
  EXPECT_EQ(store.series_names()[0], "a");
}

TEST(TimelineStore, AppendAndRandomAccess) {
  TimelineStore store;
  const std::uint32_t s = store.series("x");
  for (int i = 0; i < 3000; ++i)
    store.append(static_cast<double>(i), s, static_cast<double>(i) * 2.0);
  ASSERT_EQ(store.size(), 3000u);
  EXPECT_EQ(store.dropped(), 0u);
  EXPECT_DOUBLE_EQ(store.row(0).time, 0.0);
  EXPECT_DOUBLE_EQ(store.row(2999).value, 5998.0);
}

TEST(TimelineStore, RingBoundDropsOldestBlock) {
  TimelineStore store(/*max_rows=*/TimelineStore::kBlockRows * 2);
  const std::uint32_t s = store.series("x");
  const std::size_t n = TimelineStore::kBlockRows * 3;
  for (std::size_t i = 0; i < n; ++i) store.append(static_cast<double>(i), s, 1.0);
  EXPECT_EQ(store.size(), TimelineStore::kBlockRows * 2);
  EXPECT_EQ(store.dropped(), TimelineStore::kBlockRows);
  // Oldest retained row is the first of the second block.
  EXPECT_DOUBLE_EQ(store.row(0).time, static_cast<double>(TimelineStore::kBlockRows));
}

TEST(TimelineStore, CsvIsByteStableAndPrefixable) {
  auto fill = [](TimelineStore& store) {
    const std::uint32_t s = store.series("net.bw");
    store.append(0.001, s, 1.5);
    store.append(0.002, s, 2.5);
  };
  TimelineStore a, b;
  fill(a);
  fill(b);
  std::ostringstream oa, ob;
  a.write_csv(oa);
  b.write_csv(ob);
  EXPECT_EQ(oa.str(), ob.str());
  EXPECT_EQ(oa.str(),
            "time,series,value\n"
            "0.001,net.bw,1.5\n"
            "0.002,net.bw,2.5\n");

  std::ostringstream op;
  a.write_csv(op, "campaign,point", "smoke,7");
  EXPECT_EQ(op.str(),
            "campaign,point,time,series,value\n"
            "smoke,7,0.001,net.bw,1.5\n"
            "smoke,7,0.002,net.bw,2.5\n");

  std::ostringstream oh;
  a.write_csv(oh, "campaign,point", "smoke,7", /*with_header=*/false);
  EXPECT_EQ(oh.str(),
            "smoke,7,0.001,net.bw,1.5\n"
            "smoke,7,0.002,net.bw,2.5\n");
}

// --- Sampler ----------------------------------------------------------------

struct SamplerFixture {
  Registry reg;
  TimelineStore store;

  SamplerFixture() { reg.set_enabled(true); }

  Sampler make(double period) {
    SamplerConfig config;
    config.period = period;
    return Sampler(reg, store, std::move(config));
  }
};

TEST(Sampler, FiresOnTheTickGridWithoutDrift) {
  SamplerFixture f;
  Sampler s = f.make(0.25);
  EXPECT_DOUBLE_EQ(s.next_tick(), 0.25);  // tick 0 is skipped: all-zero deltas
  s.advance_to(1.0);
  EXPECT_EQ(s.samples_taken(), 4u);  // 0.25 0.5 0.75 1.0
  EXPECT_DOUBLE_EQ(s.next_tick(), 1.25);
  s.advance_to(0.5);  // non-monotonic: no-op
  EXPECT_EQ(s.samples_taken(), 4u);
  // The grid is k * period (multiplication), so after millions of ticks the
  // next tick is still exactly on the grid — no accumulated-addition drift.
  Sampler fine = f.make(0.25);
  fine.advance_to(1e6);
  EXPECT_EQ(fine.samples_taken(), 4000000u);
  EXPECT_DOUBLE_EQ(fine.next_tick(), 1000000.25);
}

TEST(Sampler, CounterRowsAreDeltasAndQuietTicksAreSkipped) {
  SamplerFixture f;
  Sampler s = f.make(1.0);
  Counter& c = f.reg.counter("sim.events");
  c.add(3.0);
  s.advance_to(1.0);  // delta 3
  s.advance_to(2.0);  // no change: no row
  c.add(2.0);
  s.advance_to(3.0);  // delta 2
  ASSERT_EQ(f.store.size(), 2u);
  EXPECT_DOUBLE_EQ(f.store.row(0).time, 1.0);
  EXPECT_DOUBLE_EQ(f.store.row(0).value, 3.0);
  EXPECT_DOUBLE_EQ(f.store.row(1).time, 3.0);
  EXPECT_DOUBLE_EQ(f.store.row(1).value, 2.0);
  EXPECT_EQ(f.store.series_names()[f.store.row(0).series], "sim.events");
}

TEST(Sampler, GaugeRowsRecordChangesOnly) {
  SamplerFixture f;
  Sampler s = f.make(1.0);
  Gauge& g = f.reg.gauge("net.queue");
  g.set(4.0);
  s.advance_to(1.0);
  g.set(4.0);  // unchanged
  s.advance_to(2.0);
  g.set(0.0);  // back to zero is a change
  s.advance_to(3.0);
  ASSERT_EQ(f.store.size(), 2u);
  EXPECT_DOUBLE_EQ(f.store.row(0).value, 4.0);
  EXPECT_DOUBLE_EQ(f.store.row(1).value, 0.0);
}

TEST(Sampler, HistogramRowsCarryCountDeltaAndQuantiles) {
  SamplerFixture f;
  Sampler s = f.make(1.0);
  Histogram& h = f.reg.histogram("lat");
  h.record(1.0);
  h.record(2.0);
  s.advance_to(1.0);
  s.advance_to(2.0);  // count unchanged: nothing
  ASSERT_EQ(f.store.size(), 4u);
  EXPECT_EQ(f.store.series_names()[f.store.row(0).series], "lat.count");
  EXPECT_DOUBLE_EQ(f.store.row(0).value, 2.0);
  EXPECT_EQ(f.store.series_names()[f.store.row(1).series], "lat.p50");
  EXPECT_DOUBLE_EQ(f.store.row(1).value, h.value_at_quantile(0.5));
  EXPECT_EQ(f.store.series_names()[f.store.row(2).series], "lat.p90");
  EXPECT_EQ(f.store.series_names()[f.store.row(3).series], "lat.p99");
}

TEST(Sampler, DenyListsFilterByPrefixAndSubstring) {
  SamplerFixture f;
  Sampler s = f.make(1.0);  // default deny: sim.pool.*, host.* and *wall_us*
  f.reg.counter("sim.pool.activity.reused").add(5.0);
  f.reg.histogram("campaign.point_wall_us").record(10.0);
  f.reg.counter("host.shard.0.busy_s").add(0.25);
  f.reg.gauge("host.shard.0.longest_wait_s").set(0.5);
  f.reg.counter("sim.events").add(1.0);
  s.advance_to(1.0);
  ASSERT_EQ(f.store.size(), 1u);
  EXPECT_EQ(f.store.series_names()[f.store.row(0).series], "sim.events");
}

TEST(Sampler, MirrorsRowsAsTracerCounterSamples) {
  SamplerFixture f;
  f.reg.tracer().set_enabled(true);
  Sampler s = f.make(1.0);
  f.reg.counter("sim.events").add(7.0);
  s.advance_to(1.0);
  ASSERT_EQ(f.reg.tracer().counter_samples().size(), 1u);
  const auto& cs = f.reg.tracer().counter_samples()[0];
  EXPECT_DOUBLE_EQ(cs.t, 1.0);
  EXPECT_DOUBLE_EQ(cs.value, 7.0);
}

TEST(Sampler, ChannelsStartAtTheRegistryValuesWhenBuilt) {
  // What the registry held before the sampler was built is not its delta:
  // a second simulation sampled into one point reports only its own work.
  SamplerFixture f;
  Counter& c = f.reg.counter("sim.events");
  Gauge& g = f.reg.gauge("net.queue");
  Histogram& h = f.reg.histogram("lat");
  c.add(5.0);
  g.set(4.0);
  h.record(1.0);
  Sampler s = f.make(1.0);
  c.add(2.0);
  g.set(4.0);  // unchanged since the sampler was built
  h.record(2.0);
  f.reg.counter("sim.late").add(1.0);  // created after: starts at zero
  s.advance_to(1.0);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < f.store.size(); ++i)
    rows[f.store.series_names()[f.store.row(i).series]] = f.store.row(i).value;
  EXPECT_EQ(rows.count("net.queue"), 0u);
  EXPECT_DOUBLE_EQ(rows["sim.events"], 2.0);
  EXPECT_DOUBLE_EQ(rows["lat.count"], 1.0);
  EXPECT_DOUBLE_EQ(rows["sim.late"], 1.0);
}

TEST(Sampler, IdenticalFeedsProduceByteIdenticalCsv) {
  auto run = [](std::ostream& os) {
    Registry reg;
    reg.set_enabled(true);
    TimelineStore store;
    SamplerConfig config;
    config.period = 0.5;
    Sampler s(reg, store, std::move(config));
    Counter& c = reg.counter("a.count");
    Gauge& g = reg.gauge("b.gauge");
    for (int i = 1; i <= 20; ++i) {
      c.add(static_cast<double>(i));
      g.set(static_cast<double>(i % 3));
      s.advance_to(0.5 * i);
    }
    store.write_csv(os);
  };
  std::ostringstream a, b;
  run(a);
  run(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(a.str().size(), 100u);
}

// --- RunSampling ambient ----------------------------------------------------

TEST(RunSampling, DefaultIsOffAndScopeRestores) {
  EXPECT_FALSE(run_sampling().sampling_on());
  TimelineStore store;
  {
    RunSampling rs;
    rs.timeline_period = 1e-3;
    rs.timeline = &store;
    rs.attribution = true;
    ScopedRunSampling scope(rs);
    EXPECT_TRUE(run_sampling().sampling_on());
    EXPECT_EQ(run_sampling().timeline, &store);
    {
      ScopedRunSampling inner{RunSampling{}};
      EXPECT_FALSE(run_sampling().sampling_on());
    }
    EXPECT_TRUE(run_sampling().sampling_on());
  }
  EXPECT_FALSE(run_sampling().sampling_on());
  EXPECT_FALSE(run_sampling().attribution);
}

}  // namespace
}  // namespace cci::obs
