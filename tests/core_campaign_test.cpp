// Campaign engine: typed multi-axis expansion, deterministic seeding,
// parallel == serial bitwise, content-addressed caching, sharding.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "kernels/stream.hpp"
#include "obs/metrics.hpp"

namespace cci::core {
namespace {

Scenario quick_base() {
  Scenario s;
  s.kernel = kernels::triad_traits();
  s.message_bytes = 4;
  s.pingpong_iterations = 2;
  s.pingpong_warmup = 0;
  s.compute_repetitions = 1;
  s.target_pass_seconds = 0.002;
  return s;
}

Campaign quick_campaign(SeedPolicy policy = SeedPolicy::kPerPoint) {
  Campaign c("test_campaign", SweepSpec(quick_base())
                                  .seed_policy(policy)
                                  .cores("cores", {0, 2, 4})
                                  .message_bytes("msg_bytes", {4, 65536}));
  c.column("lat_us", Campaign::latency_together_us())
      .column("bw_ratio", Campaign::bandwidth_ratio());
  return c;
}

CampaignOptions opts(int jobs, std::string cache_dir = "", int shard_index = 0,
                     int shard_count = 1) {
  CampaignOptions o;
  o.jobs = jobs;
  o.cache_dir = std::move(cache_dir);
  o.shard_index = shard_index;
  o.shard_count = shard_count;
  return o;
}

/// Unique per-test scratch directory under the system tmp dir.
std::string scratch_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("cci_campaign_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(SweepSpec, ExpandsRowMajorWithTypedLabels) {
  auto points = quick_campaign().spec().expand();
  ASSERT_EQ(points.size(), 6u);
  // First axis (cores) slowest, second (msg_bytes) fastest.
  EXPECT_EQ(points[0].labels, (std::vector<std::string>{"0", "4"}));
  EXPECT_EQ(points[1].labels, (std::vector<std::string>{"0", "65536"}));
  EXPECT_EQ(points[2].labels, (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(points[5].labels, (std::vector<std::string>{"4", "65536"}));
  // Native types survive: no double round-trip on the size_t axis.
  EXPECT_EQ(points[1].scenario.message_bytes, 65536u);
  EXPECT_EQ(points[5].scenario.computing_cores, 4);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
}

TEST(SweepSpec, LargeSizesDoNotTruncate) {
  // The old double-typed Sweep axis could not represent every size_t; the
  // typed axis must hand back exactly what was declared.
  const std::size_t big = (1ull << 53) + 1;  // not representable in double
  SweepSpec spec(quick_base());
  spec.message_bytes("msg_bytes", {big});
  auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].scenario.message_bytes, big);
}

TEST(SweepSpec, PerPointSeedsAreStableAndDistinct) {
  auto points = quick_campaign(SeedPolicy::kPerPoint).spec().expand();
  std::set<std::uint64_t> seeds;
  for (const auto& p : points) {
    EXPECT_EQ(p.scenario.seed, mix_seed(quick_base().seed, p.index));
    seeds.insert(p.scenario.seed);
  }
  EXPECT_EQ(seeds.size(), points.size());  // no collisions on this grid

  auto fixed = quick_campaign(SeedPolicy::kFixed).spec().expand();
  for (const auto& p : fixed) EXPECT_EQ(p.scenario.seed, quick_base().seed);
}

TEST(Campaign, ParallelRunIsBitwiseIdenticalToSerial) {
  Campaign c = quick_campaign();
  CampaignEngine serial(opts(1));
  CampaignEngine parallel(opts(8));
  CampaignRun a = serial.run(c);
  CampaignRun b = parallel.run(c);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i)
    for (std::size_t j = 0; j < a.values[i].size(); ++j)
      EXPECT_EQ(a.values[i][j], b.values[i][j]) << "point " << i << " col " << j;

  std::ostringstream ta, tb;
  a.table(c).print(ta);
  b.table(c).print(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(Campaign, ParallelRunMergesWorkerMetricsDeterministically) {
  obs::Registry& reg = obs::Registry::process();
  reg.set_enabled(true);
  Campaign c = quick_campaign();

  reg.reset();
  CampaignEngine(opts(1)).run(c);
  const double serial_events = reg.counter("sim.engine.events_dispatched").value();

  reg.reset();
  CampaignEngine(opts(8)).run(c);
  const double parallel_events = reg.counter("sim.engine.events_dispatched").value();

  EXPECT_GT(serial_events, 0.0);
  EXPECT_EQ(serial_events, parallel_events);
  reg.set_enabled(false);
  reg.reset();
}

TEST(Campaign, WarmCacheExecutesZeroPointsWithIdenticalTable) {
  const std::string dir = scratch_dir("warm");
  Campaign c = quick_campaign();

  CampaignEngine cold(opts(2, dir));
  CampaignRun first = cold.run(c);
  EXPECT_EQ(first.executed, 6u);
  EXPECT_EQ(first.cached, 0u);

  CampaignEngine warm(opts(2, dir));
  CampaignRun second = warm.run(c);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.cached, 6u);
  EXPECT_EQ(warm.points_executed(), 0u);

  std::ostringstream ta, tb;
  first.table(c).print(ta);
  second.table(c).print(tb);
  EXPECT_EQ(ta.str(), tb.str());
  std::filesystem::remove_all(dir);
}

TEST(Campaign, ShardsPartitionTheGridAndUnionToTheFullRun) {
  Campaign c = quick_campaign();
  CampaignRun full = CampaignEngine(opts(1)).run(c);

  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (int shard = 0; shard < 3; ++shard) {
    CampaignEngine engine(opts(1, "", shard, 3));
    CampaignRun run = engine.run(c);
    EXPECT_EQ(run.grid_total, full.points.size());
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      auto [it, inserted] = seen.insert(run.points[i].index);
      EXPECT_TRUE(inserted) << "point " << run.points[i].index << " in two shards";
      // Shard values match the full run bitwise.
      EXPECT_EQ(run.values[i], full.values[run.points[i].index]);
    }
    total += run.points.size();
  }
  EXPECT_EQ(total, full.points.size());
  EXPECT_EQ(seen.size(), full.points.size());
}

TEST(Campaign, ShardedCacheWarmsTheUnsharededRun) {
  const std::string dir = scratch_dir("shards");
  Campaign c = quick_campaign();
  for (int shard = 0; shard < 2; ++shard) {
    CampaignEngine engine(opts(2, dir, shard, 2));
    CampaignRun run = engine.run(c);
    EXPECT_EQ(run.cached, 0u);
  }
  CampaignEngine merged(opts(1, dir));
  CampaignRun run = merged.run(c);
  EXPECT_EQ(run.executed, 0u);
  EXPECT_EQ(run.cached, 6u);
  std::filesystem::remove_all(dir);
}

TEST(Campaign, CacheKeySeparatesScenariosColumnsAndEvaluators) {
  Campaign c = quick_campaign();
  auto points = c.spec().expand();
  std::set<std::uint64_t> keys;
  for (const auto& p : points) keys.insert(cache_key(c, p));
  EXPECT_EQ(keys.size(), points.size());  // distinct scenarios -> distinct keys

  // Same grid, different column set -> different keys.
  Campaign other("test_campaign", SweepSpec(quick_base())
                                      .cores("cores", {0, 2, 4})
                                      .message_bytes("msg_bytes", {4, 65536}));
  other.column("stall", Campaign::stall_fraction());
  EXPECT_NE(cache_key(c, points[0]), cache_key(other, other.spec().expand()[0]));

  // Same grid and columns, custom evaluator -> different keys.
  Campaign custom = quick_campaign();
  custom.evaluator("custom.v1",
                   [](const SweepPoint&) { return std::vector<double>{0.0, 0.0}; });
  EXPECT_NE(cache_key(c, points[0]), cache_key(custom, points[0]));
}

TEST(Campaign, CustomEvaluatorRunsInsteadOfTheLab) {
  Campaign c("custom", SweepSpec(quick_base()).cores("cores", {1, 2, 3}));
  c.column("double_cores", Campaign::Metric{});
  c.evaluator("doubler.v1", [](const SweepPoint& p) {
    return std::vector<double>{2.0 * p.numeric[0]};
  });
  CampaignRun run = CampaignEngine(opts(2)).run(c);
  ASSERT_EQ(run.values.size(), 3u);
  EXPECT_EQ(run.values[0][0], 2.0);
  EXPECT_EQ(run.values[1][0], 4.0);
  EXPECT_EQ(run.values[2][0], 6.0);
}

TEST(Campaign, TimelineOffKeepsEveryRunTimelineFree) {
  Campaign c = quick_campaign();
  CampaignRun run = CampaignEngine(opts(2)).run(c);
  EXPECT_TRUE(run.timelines.empty());
  std::ostringstream os;
  run.write_timeline_csv(os, "test_campaign");
  EXPECT_TRUE(os.str().empty());
}

TEST(Campaign, TimelineCsvIsBitwiseIdenticalAcrossJobs) {
  Campaign c = quick_campaign();
  auto run_with_jobs = [&](int jobs) {
    CampaignOptions o = opts(jobs);
    o.timeline_period = 1e-4;
    CampaignRun run = CampaignEngine(o).run(c);
    std::ostringstream os;
    run.write_timeline_csv(os, "test_campaign");
    return std::pair<std::string, std::size_t>(os.str(), run.timelines.size());
  };
  auto [serial, n_serial] = run_with_jobs(1);
  auto [parallel, n_parallel] = run_with_jobs(8);
  EXPECT_EQ(n_serial, 6u);
  EXPECT_EQ(n_parallel, 6u);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The header appears exactly once, up front.
  EXPECT_EQ(serial.rfind("campaign,point,time,series,value\n", 0), 0u);
  EXPECT_EQ(serial.find("campaign,point,time,series,value\n", 1), std::string::npos);
}

TEST(Campaign, ShardTimelinesMatchTheFullRunPerPoint) {
  Campaign c = quick_campaign();
  auto with_timeline = [&](int shard_index, int shard_count) {
    CampaignOptions o = opts(1, "", shard_index, shard_count);
    o.timeline_period = 1e-4;
    return CampaignEngine(o).run(c);
  };
  CampaignRun full = with_timeline(0, 1);
  ASSERT_EQ(full.timelines.size(), full.points.size());
  std::size_t covered = 0;
  for (int shard = 0; shard < 3; ++shard) {
    CampaignRun run = with_timeline(shard, 3);
    ASSERT_EQ(run.timelines.size(), run.points.size());
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      std::ostringstream shard_csv, full_csv;
      run.timelines[i].write_csv(shard_csv);
      full.timelines[run.points[i].index].write_csv(full_csv);
      EXPECT_EQ(shard_csv.str(), full_csv.str())
          << "point " << run.points[i].index << " differs in shard " << shard;
      ++covered;
    }
  }
  EXPECT_EQ(covered, full.points.size());
}

TEST(Campaign, TimelineRunsLeaveTheProcessRegistryAlone) {
  // A disabled process registry must stay untouched even though timeline
  // points run against enabled per-point registries (merge_from would
  // otherwise leak raw values through the disabled switch).
  obs::Registry& reg = obs::Registry::process();
  reg.reset();
  ASSERT_FALSE(reg.enabled());
  Campaign c = quick_campaign();
  CampaignOptions o = opts(2);
  o.timeline_period = 1e-4;
  CampaignEngine(o).run(c);
  EXPECT_DOUBLE_EQ(reg.counter("sim.engine.events_dispatched").value(), 0.0);
}

Campaign attribution_campaign() {
  Campaign c("attrib_campaign",
             SweepSpec(quick_base()).cores("cores", {0, 2}));
  c.with_attribution();
  c.column("comm_slow_by_compute", Campaign::comm_slowdown_from_compute())
      .column("compute_slow_by_comm", Campaign::compute_slowdown_from_comm())
      .column("comm_frac", Campaign::comm_contended_fraction())
      .column("compute_frac", Campaign::compute_contended_fraction());
  return c;
}

TEST(Campaign, AttributionColumnsAreDeterministicAndSane) {
  Campaign c = attribution_campaign();
  CampaignRun a = CampaignEngine(opts(1)).run(c);
  CampaignRun b = CampaignEngine(opts(8)).run(c);
  ASSERT_EQ(a.values.size(), 2u);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i].size(), 4u);
    for (std::size_t j = 0; j < a.values[i].size(); ++j) {
      EXPECT_EQ(a.values[i][j], b.values[i][j]) << "point " << i << " col " << j;
      EXPECT_GE(a.values[i][j], 0.0);
    }
  }
  // cores=0: the side-by-side phase has no computation, so communication
  // cannot be slowed by the compute class.
  EXPECT_EQ(a.values[0][0], 0.0);
  // contended fractions are fractions.
  EXPECT_LE(a.values[1][2], 1.0);
  EXPECT_LE(a.values[1][3], 1.0);
}

TEST(Campaign, AttributionFoldsIntoTheCacheKey) {
  Campaign plain = quick_campaign();
  Campaign attrib = quick_campaign();
  attrib.with_attribution();
  auto points = plain.spec().expand();
  EXPECT_NE(cache_key(plain, points[0]), cache_key(attrib, points[0]));
}

TEST(Campaign, SeedOverrideChangesTheMixBase) {
  SweepSpec spec(quick_base());
  spec.cores("cores", {0, 1});
  const std::uint64_t other = 1234;
  auto def = spec.expand();
  auto ovr = spec.expand(&other);
  ASSERT_EQ(def.size(), ovr.size());
  EXPECT_NE(def[0].scenario.seed, ovr[0].scenario.seed);
  EXPECT_EQ(ovr[0].scenario.seed, mix_seed(other, 0));
}

TEST(Campaign, StaleCacheTmpFilesAreSweptOnOpen) {
  const std::string dir = scratch_dir("tmpsweep");
  Campaign c = quick_campaign();
  CampaignEngine(opts(1, dir)).run(c);  // warm the cache

  // Plant litter from writers that died between write and rename: one
  // modern unique-suffix tmp and one legacy shared-name tmp.
  const auto stale1 = std::filesystem::path(dir) / "00000000deadbeef.json.tmp.4242.7";
  const auto stale2 = std::filesystem::path(dir) / "00000000deadbeef.json.tmp";
  for (const auto& p : {stale1, stale2}) {
    std::ofstream os(p);
    os << "half-written";
  }

  obs::Registry& reg = obs::Registry::process();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();
  CampaignRun run = CampaignEngine(opts(1, dir)).run(c);
  EXPECT_EQ(run.executed, 0u);  // litter never shadows real entries
  EXPECT_EQ(run.cached, 6u);
  EXPECT_FALSE(std::filesystem::exists(stale1));
  EXPECT_FALSE(std::filesystem::exists(stale2));
  EXPECT_EQ(reg.counter("campaign.cache_tmp_swept").value(), 2.0);
  reg.reset();
  reg.set_enabled(was_enabled);
  std::filesystem::remove_all(dir);
}

TEST(Campaign, TruncatedCacheEntryIsRejectedAndRecomputed) {
  const std::string dir = scratch_dir("truncated");
  Campaign c = quick_campaign();
  CampaignRun cold = CampaignEngine(opts(1, dir)).run(c);
  std::ostringstream cold_table;
  cold.table(c).print(cold_table);

  // Cut one entry inside its last value: `"values": [1.5, 2` still parses
  // as the right number of columns, but the last one is wrong.
  const std::filesystem::path victim = std::filesystem::directory_iterator(dir)->path();
  std::string doc;
  {
    std::ifstream is(victim);
    std::stringstream buffer;
    buffer << is.rdbuf();
    doc = buffer.str();
  }
  const std::size_t last = doc.rfind(", ");
  ASSERT_NE(last, std::string::npos);
  {
    std::ofstream os(victim, std::ios::trunc);
    os << doc.substr(0, last + 3);
  }

  obs::Registry& reg = obs::Registry::process();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();
  CampaignRun warm = CampaignEngine(opts(1, dir)).run(c);
  EXPECT_EQ(warm.executed, 1u);  // the cut entry is a miss, recomputed
  EXPECT_EQ(warm.cached, 5u);
  std::ostringstream warm_table;
  warm.table(c).print(warm_table);
  EXPECT_EQ(warm_table.str(), cold_table.str());
  EXPECT_EQ(reg.counter("campaign.cache_rejected").value(), 1.0);
  reg.reset();
  reg.set_enabled(was_enabled);

  // The recomputed point was stored again, whole.
  EXPECT_EQ(CampaignEngine(opts(1, dir)).run(c).executed, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Campaign, ConcurrentCacheWritersUseUniqueTmpsAndConverge) {
  const std::string dir = scratch_dir("tmprace");
  Campaign c = quick_campaign();
  obs::Registry& reg = obs::Registry::process();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(false);  // keep the shared registry write-free under races
  reg.counter("campaign.cache_tmp_swept");  // pre-create: no concurrent insert
  CampaignRun ref = CampaignEngine(opts(1)).run(c);  // also pre-warms metric names

  // Four engines filling the same cache dir at once.  Every writer renames
  // its own unique tmp, so published entries are always one writer's
  // complete bytes no matter how the stores interleave.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&c, &dir] {
      obs::Registry scratch;  // sim metrics stay off the process registry
      obs::Registry::ScopedThreadLocal tls(scratch);
      CampaignEngine(opts(1, dir)).run(c);
    });
  for (auto& t : writers) t.join();

  // A sibling's stale-tmp sweep may race a live writer's rename (documented
  // best-effort: that point just stays uncached), so top up once serially
  // before asserting a fully warm cache.
  CampaignEngine(opts(1, dir)).run(c);
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos) << entry.path();
  CampaignRun cached = CampaignEngine(opts(1, dir)).run(c);
  EXPECT_EQ(cached.executed, 0u);
  EXPECT_EQ(cached.cached, 6u);
  ASSERT_EQ(cached.values.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i)
    EXPECT_EQ(cached.values[i], ref.values[i]) << "point " << i;
  reg.set_enabled(was_enabled);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cci::core
