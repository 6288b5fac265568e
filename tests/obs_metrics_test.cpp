// obs metrics: histogram bucketing, snapshot determinism, disabled no-ops.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cci::obs {
namespace {

// --- Histogram bucketing ---------------------------------------------------

TEST(Histogram, NonPositiveValuesLandInUnderflow) {
  EXPECT_EQ(Histogram::bucket_index(0.0), Histogram::kUnderflow);
  EXPECT_EQ(Histogram::bucket_index(-1.0), Histogram::kUnderflow);
  EXPECT_EQ(Histogram::bucket_index(-1e300), Histogram::kUnderflow);
}

TEST(Histogram, BucketIndexIsMonotonic) {
  std::vector<double> values;
  for (double v = 1e-9; v < 1e9; v *= 1.17) values.push_back(v);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(Histogram::bucket_index(values[i - 1]), Histogram::bucket_index(values[i]))
        << "at " << values[i];
  }
}

TEST(Histogram, BucketValueRoundTripsWithinResolution) {
  // The log-linear layout guarantees ~1/kSubBuckets relative resolution:
  // a bucket's representative value must be within one sub-bucket width of
  // anything that maps into it.
  for (double v : {1e-9, 3.7e-6, 1.0, 1.5, 2.0, 123.456, 7.2e8}) {
    int idx = Histogram::bucket_index(v);
    double rep = Histogram::bucket_value(idx);
    EXPECT_EQ(Histogram::bucket_index(rep), idx) << "rep not in own bucket for " << v;
    EXPECT_NEAR(rep / v, 1.0, 2.0 / Histogram::kSubBuckets) << "v=" << v;
  }
}

TEST(Histogram, PowersOfTwoFallInDistinctOctaves) {
  int prev = Histogram::bucket_index(1.0);
  for (double v = 2.0; v <= 1024.0; v *= 2.0) {
    int idx = Histogram::bucket_index(v);
    EXPECT_EQ(idx - prev, Histogram::kSubBuckets) << "octave step at " << v;
    prev = idx;
  }
}

TEST(Histogram, SummaryStatistics) {
  Registry reg;
  reg.set_enabled(true);
  Histogram& h = reg.histogram("t");
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, QuantilesAreBucketAccurate) {
  Registry reg;
  reg.set_enabled(true);
  Histogram& h = reg.histogram("q");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  double tol = 2.0 / Histogram::kSubBuckets;
  EXPECT_NEAR(h.value_at_quantile(0.5) / 50.0, 1.0, tol + 1.0 / 50.0);
  EXPECT_NEAR(h.value_at_quantile(0.9) / 90.0, 1.0, tol + 1.0 / 90.0);
  EXPECT_NEAR(h.value_at_quantile(1.0) / 100.0, 1.0, tol);
  EXPECT_NEAR(h.value_at_quantile(0.0) / 1.0, 1.0, tol);
}

TEST(Histogram, ValueAtQuantileTieBreaksToTheLowerBucket) {
  Registry reg;
  reg.set_enabled(true);
  Histogram& h = reg.histogram("tie");
  // Two samples per bucket: the median rank ceil(0.5 * 4) = 2 lands exactly
  // on the boundary between the buckets — the lower-indexed bucket wins.
  h.record(1.0);
  h.record(1.0);
  h.record(1000.0);
  h.record(1000.0);
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.5),
                   Histogram::bucket_value(Histogram::bucket_index(1.0)));
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.75),
                   Histogram::bucket_value(Histogram::bucket_index(1000.0)));
  // q = 0 maps to the first sample; q out of range clamps.
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.0), h.value_at_quantile(-1.0));
  EXPECT_DOUBLE_EQ(h.value_at_quantile(1.0), h.value_at_quantile(2.0));
  // The historical name stays an exact alias.
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.9), h.value_at_quantile(0.9));
}

TEST(Snapshot, TryValueOfDistinguishesAbsentFromZero) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("present.zero");  // created but never incremented
  reg.counter("present.nonzero").add(3.0);
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.try_value_of("present.zero"), std::optional<double>(0.0));
  EXPECT_EQ(s.try_value_of("present.nonzero"), std::optional<double>(3.0));
  EXPECT_EQ(s.try_value_of("absent"), std::nullopt);
  // value_of conflates the first and third cases — the documented trap.
  EXPECT_DOUBLE_EQ(s.value_of("present.zero"), s.value_of("absent"));
  // string_view find: no std::string materialization required of callers.
  const std::string_view key = "present.nonzero";
  const Snapshot::Entry* e = s.find(key);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->value, 3.0);
}

// --- Registry / snapshot ---------------------------------------------------

TEST(Registry, FindOrCreateReturnsSameHandle) {
  Registry reg;
  EXPECT_EQ(&reg.counter("a.b"), &reg.counter("a.b"));
  EXPECT_EQ(&reg.gauge("a.g"), &reg.gauge("a.g"));
  EXPECT_EQ(&reg.histogram("a.h"), &reg.histogram("a.h"));
}

void drive(Registry& reg) {
  reg.counter("sim.engine.events").add(3);
  reg.counter("mpi.world.bytes").add(4096);
  reg.gauge("runtime.rank0.pollers").set(7);
  reg.gauge("runtime.rank0.pollers").set(5);
  for (double v : {1e-6, 2e-6, 5e-6, 8e-6}) reg.histogram("mpi.dma_rate").record(v);
}

TEST(Registry, SnapshotIsDeterministicAcrossIdenticalRuns) {
  Registry a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  drive(a);
  drive(b);
  Snapshot sa = a.snapshot(), sb = b.snapshot();
  ASSERT_EQ(sa.entries.size(), sb.entries.size());
  for (std::size_t i = 0; i < sa.entries.size(); ++i) {
    EXPECT_EQ(sa.entries[i].name, sb.entries[i].name);
    EXPECT_EQ(sa.entries[i].kind, sb.entries[i].kind);
    EXPECT_DOUBLE_EQ(sa.entries[i].value, sb.entries[i].value);
    EXPECT_DOUBLE_EQ(sa.entries[i].p50, sb.entries[i].p50);
    EXPECT_EQ(sa.entries[i].count, sb.entries[i].count);
  }
}

TEST(Registry, SnapshotIsNameSorted) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("z.last").add(1);
  reg.gauge("a.first").set(1);
  reg.histogram("m.middle").record(1);
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.entries.size(), 3u);
  for (std::size_t i = 1; i < s.entries.size(); ++i)
    EXPECT_LT(s.entries[i - 1].name, s.entries[i].name);
  EXPECT_DOUBLE_EQ(s.value_of("z.last"), 1.0);
  EXPECT_EQ(s.find("nope"), nullptr);
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  Registry reg;
  reg.set_enabled(true);
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  c.add(9);
  h.record(1.0);
  reg.tracer().set_enabled(true);
  TrackId t = reg.tracer().track("row");
  reg.tracer().span(t, "s", 0.0, 1.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(reg.tracer().spans().empty());
  EXPECT_TRUE(reg.enabled());  // reset does not flip the switch
  c.add(2);                    // handle still live
  EXPECT_DOUBLE_EQ(c.value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().value_of("c"), 2.0);
}

// --- Disabled registry records nothing -------------------------------------

TEST(Registry, DisabledRecordsNothing) {
  Registry reg;  // disabled by default
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(3);
  h.record(1.0);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr;  // disabled by default
  TrackId t = tr.track("row");  // interning works even while disabled
  tr.span(t, "s", 0.0, 1.0);
  tr.counter_sample("c", 0.5, 1.0);
  tr.instant(t, "i", 0.25);
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_TRUE(tr.counter_samples().empty());
  EXPECT_TRUE(tr.instants().empty());
  ASSERT_EQ(tr.track_names().size(), 1u);
  EXPECT_EQ(tr.track_names()[0], "row");
}

TEST(Tracer, BackwardsSpanIsIgnored) {
  Tracer tr;
  tr.set_enabled(true);
  TrackId t = tr.track("row");
  tr.span(t, "bad", 2.0, 1.0);
  EXPECT_TRUE(tr.spans().empty());
}

}  // namespace
}  // namespace cci::obs
