// Campaign engine: typed multi-axis expansion, deterministic seeding,
// parallel == serial bitwise, content-addressed caching, sharding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "kernels/stream.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

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

/// Point 0 adds 2^53 and every other point 1.0: in doubles that sum
/// depends on its grouping (2^53 + 1 rounds back to 2^53, 2^53 + 2 does
/// not), so folding per-worker partial sums would make the process totals
/// depend on which points each worker ran.
TEST(Campaign, ParallelMetricSumsDoNotDependOnTheWorkerSplit) {
  Campaign c("grouping", SweepSpec(quick_base()).cores("cores", {0, 1, 2, 3, 4, 5, 6, 7, 8,
                                                                   9, 10, 11, 12, 13, 14, 15}));
  c.column("cores", Campaign::Metric{});
  c.evaluator("grouping.v1", [](const SweepPoint& p) {
    const double v = p.index == 0 ? 9007199254740992.0 : 1.0;
    obs::Registry::global().counter("test.grouping.sum").add(v);
    obs::Registry::global().histogram("test.grouping.hist").record(v);
    return std::vector<double>{p.numeric[0]};
  });
  obs::Registry& reg = obs::Registry::process();
  reg.set_enabled(true);
  const auto snapshot_after = [&](int jobs) {
    reg.reset();
    CampaignEngine(opts(jobs)).run(c);
    std::ostringstream os;
    for (const obs::Snapshot::Entry& e : reg.snapshot().entries) {
      char buf[160];
      std::snprintf(buf, sizeof buf, " %a %a %llu %a\n", e.value, e.max,
                    static_cast<unsigned long long>(e.count), e.sum);
      os << e.name << buf;
    }
    return os.str();
  };
  const std::string first = snapshot_after(2);
  EXPECT_NE(first.find("test.grouping.sum"), std::string::npos);
  for (int round = 0; round < 3; ++round)
    for (int jobs : {2, 4, 8}) EXPECT_EQ(snapshot_after(jobs), first) << "jobs " << jobs;
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

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void write_file(const std::filesystem::path& path, const std::string& doc) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << doc;
}

/// The cache entry file of `point`: `<dir>/<hex16 key>.json`.
std::filesystem::path entry_file(const std::string& dir, const Campaign& c,
                                 const SweepPoint& point) {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.json",
                static_cast<unsigned long long>(cache_key(c, point)));
  return std::filesystem::path(dir) / name;
}

TEST(Campaign, ForgedKeyCollisionIsRejectedAndRecomputed) {
  const std::string dir = scratch_dir("collision");
  Campaign c = quick_campaign();
  CampaignRun cold = CampaignEngine(opts(1, dir)).run(c);
  std::ostringstream cold_table;
  cold.table(c).print(cold_table);
  ASSERT_NE(cold.values[0], cold.values[1]);

  // Forge a 64-bit collision: point 1's entry, its key field rewritten to
  // point 0's key, stored as point 0's entry.  Schema and key both match;
  // only the stored point text (and the values) belong to point 1.
  const std::vector<SweepPoint> points = c.spec().expand();
  const std::filesystem::path own = entry_file(dir, c, points[0]);
  const std::filesystem::path other = entry_file(dir, c, points[1]);
  std::string doc = read_file(other);
  const std::string other_key = other.stem().string();
  const std::size_t at = doc.find(other_key);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, other_key.size(), own.stem().string());
  write_file(own, doc);

  obs::Registry& reg = obs::Registry::process();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();
  CampaignRun warm = CampaignEngine(opts(1, dir)).run(c);
  EXPECT_EQ(warm.executed, 1u);  // the forged entry is recomputed
  EXPECT_EQ(warm.cached, 5u);
  EXPECT_FALSE(warm.from_cache[0]);
  std::ostringstream warm_table;
  warm.table(c).print(warm_table);
  EXPECT_EQ(warm_table.str(), cold_table.str());
  EXPECT_EQ(reg.counter("campaign.cache_rejected").value(), 1.0);
  reg.reset();
  reg.set_enabled(was_enabled);

  // The recomputed point was stored again under its own text.
  EXPECT_EQ(CampaignEngine(opts(1, dir)).run(c).executed, 0u);
  std::filesystem::remove_all(dir);
}

/// Seeded generated inputs for the cache-entry reader, driven through the
/// engine: every truncation, single-byte flips at every offset, dropped and
/// duplicated fields, non-numeric values and wrong column counts.  A
/// one-point campaign with a trivial evaluator keeps each input to one
/// file read (plus one recompute when it is rejected).
TEST(CampaignCacheEntry, GeneratedEntriesAreRejectedOrServedExactly) {
  const std::string dir = scratch_dir("entry_inputs");
  int evaluations = 0;
  Campaign c("entry_inputs", SweepSpec(quick_base()).cores("cores", {2}));
  c.column("a", Campaign::Metric{}).column("b", Campaign::Metric{}).column("c", Campaign::Metric{});
  c.evaluator("entry_inputs.v1", [&evaluations](const SweepPoint& p) {
    ++evaluations;
    return std::vector<double>{0.1 * p.numeric[0], -3.0e-7, 12345.678};
  });
  const std::vector<double> cold = CampaignEngine(opts(1, dir)).run(c).values[0];
  const std::filesystem::path entry = entry_file(dir, c, c.spec().expand()[0]);
  const std::string valid = read_file(entry);

  // What the reader matches: `"schema": N,`, `"key": "<hex>"`,
  // `"point": "<text>"` and the `"values": [` opener.  A damaged byte
  // inside any of them rejects the entry.
  const auto field_at = [&valid](const std::string& field) {
    return valid.find("\"" + field + "\": ");
  };
  const std::size_t schema_begin = field_at("schema");
  const std::size_t key_begin = field_at("key");
  const std::size_t campaign_begin = field_at("campaign");
  const std::size_t point_begin = field_at("point");
  const std::size_t values_begin = field_at("values");
  ASSERT_TRUE(schema_begin < key_begin && key_begin < campaign_begin &&
              campaign_begin < point_begin && point_begin < values_begin &&
              values_begin != std::string::npos);
  const std::size_t schema_end = valid.find(',', schema_begin) + 1;
  const std::size_t key_end = valid.find('\n', key_begin) - 1;      // before the comma
  const std::size_t point_end = valid.find('\n', point_begin) - 1;  // before the comma
  const std::size_t opener_end = values_begin + std::string("\"values\": [").size();
  const std::size_t close = valid.rfind(']');
  ASSERT_TRUE(opener_end < close);
  std::vector<std::string> cells;
  for (std::size_t at = opener_end; at < close;) {
    const std::size_t comma = std::min(valid.find(", ", at), close);
    cells.push_back(valid.substr(at, comma - at));
    at = comma + 2;
  }
  ASSERT_EQ(cells.size(), cold.size());

  enum class Outcome { kRejected, kServedCold, kEither };
  // Feeds one input through a warm run; a rejected input is recomputed and
  // must come back with its cold values.
  const auto feed = [&](const std::string& doc, Outcome want, const std::string& what) {
    write_file(entry, doc);
    const int before = evaluations;
    const CampaignRun run = CampaignEngine(opts(1, dir)).run(c);
    const bool rejected = evaluations != before;
    EXPECT_EQ(run.executed, rejected ? 1u : 0u) << what;
    if (rejected) {
      EXPECT_EQ(run.values[0], cold) << what;
    }
    if (want == Outcome::kRejected) {
      EXPECT_TRUE(rejected) << what;
    }
    if (want == Outcome::kServedCold) {
      EXPECT_FALSE(rejected) << what;
      EXPECT_EQ(run.values[0], cold) << what;
    }
    EXPECT_EQ(run.values[0].size(), cold.size()) << what;
  };

  // Truncation at every byte: a cut before the closing ']' always rejects.
  for (std::size_t n = 0; n < valid.size(); ++n)
    feed(valid.substr(0, n), n <= close ? Outcome::kRejected : Outcome::kServedCold,
         "truncated to " + std::to_string(n) + " bytes");

  // One seeded byte flip at every offset.  Damage to the schema, key or
  // point text, or to the values opener, rejects; a flipped digit may read
  // as another number; anything else leaves the entry served exactly.
  sim::Rng rng(0xE27A);
  for (std::size_t at = 0; at < valid.size(); ++at) {
    std::string doc = valid;
    doc[at] = static_cast<char>(static_cast<unsigned char>(doc[at]) ^ (1 + rng.below(255)));
    const auto inside = [at](std::size_t begin, std::size_t end) {
      return at >= begin && at < end;
    };
    Outcome want = Outcome::kServedCold;
    if (inside(schema_begin, schema_end) || inside(key_begin, key_end) ||
        inside(point_begin, point_end) || inside(values_begin, opener_end))
      want = Outcome::kRejected;
    else if (inside(opener_end, close + 1))
      want = Outcome::kEither;
    feed(doc, want, "byte " + std::to_string(at) + " flipped");
  }

  // Dropped and duplicated fields.
  const auto line_of = [&valid](std::size_t begin) {
    const std::size_t start = valid.rfind('\n', begin) + 1;
    return std::pair<std::size_t, std::size_t>{start, valid.find('\n', begin) + 1};
  };
  for (std::size_t begin : {schema_begin, key_begin, campaign_begin, point_begin, values_begin}) {
    const auto [start, end] = line_of(begin);
    const std::string field = valid.substr(start, end - start);
    std::string dropped = valid;
    dropped.erase(start, end - start);
    feed(dropped, begin == campaign_begin ? Outcome::kServedCold : Outcome::kRejected,
         "dropped " + field);
    std::string twice = valid;
    twice.insert(end, field);
    feed(twice, Outcome::kServedCold, "duplicated " + field);
  }

  // Non-numeric values and wrong column counts.
  const auto with_values = [&](const std::vector<std::string>& row) {
    std::string doc = valid.substr(0, opener_end);
    for (std::size_t i = 0; i < row.size(); ++i) doc += (i ? ", " : "") + row[i];
    return doc + valid.substr(close);
  };
  const char* const junk[] = {"abc", "--1", "+-2", "x1", ".", "e5", "\"1.0\"", "true",
                              "null", "1.2.3", "0x", "{}", "[1]", "1e+", "#"};
  for (int i = 0; i < 64; ++i) {
    std::vector<std::string> row = cells;
    row[rng.below(row.size())] = junk[rng.below(std::size(junk))];
    feed(with_values(row), Outcome::kRejected, "values " + with_values(row).substr(opener_end));
  }
  for (std::size_t n = 0; n < cells.size(); ++n)
    feed(with_values({cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(n)}),
         Outcome::kRejected, std::to_string(n) + " columns");
  std::vector<std::string> extra = cells;
  extra.push_back(cells.front());
  feed(with_values(extra), Outcome::kRejected, "one column too many");

  // The valid entry is still served exactly.
  feed(valid, Outcome::kServedCold, "valid entry");
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
