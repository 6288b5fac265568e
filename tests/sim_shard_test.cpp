// Conservative-window shard-parallel simulation: boundary-proxy exchange,
// serial-path equivalence, run-to-run and cross-shard-count determinism,
// jobs on every shard, error propagation, and the coordinating thread's
// worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "sim/flow_model.hpp"
#include "sim/shard.hpp"
#include "sim/stall.hpp"

namespace cci::sim {
namespace {

// ---- helpers ----------------------------------------------------------------

/// Render a snapshot for byte-comparison, dropping the host-dependent
/// series (pool occupancy, wall-clock histograms, host.* worker health)
/// exactly like the sampler's deny lists do.
std::string snapshot_text(const obs::Snapshot& snap) {
  std::ostringstream os;
  for (const auto& e : snap.entries) {
    if (e.name.rfind("sim.pool.", 0) == 0) continue;
    if (e.name.rfind("host.", 0) == 0) continue;
    if (e.name.find("wall_us") != std::string::npos) continue;
    char buf[256];
    std::snprintf(buf, sizeof buf, " %d %.17g %.17g %llu %.17g %.17g\n",
                  static_cast<int>(e.kind), e.value, e.max,
                  static_cast<unsigned long long>(e.count), e.sum, e.min);
    os << e.name << buf;
  }
  return os.str();
}

sim::Coro churn(Engine& engine, FlowModel& model, Resource* a, Resource* b,
                LabelId label, int acts, std::vector<Time>* done) {
  for (int i = 0; i < acts; ++i) {
    ActivitySpec spec;
    spec.label = label;
    spec.work = 1.0 + 0.25 * static_cast<double>(i % 4);
    spec.demands.push_back({a, 1.0});
    if (i % 2 != 0) spec.demands.push_back({b, 0.5});
    co_await *model.start(spec);
    if (done != nullptr) done->push_back(engine.now());
  }
}

constexpr int kGroups = 4;
constexpr int kProcsPerGroup = 2;
constexpr int kActs = 24;

/// kGroups independent node groups (own FlowModel + private resources ->
/// shard-closed), dealt to shards round-robin.  Completion instants are
/// recorded per group so runs are comparable across shard counts.
struct GroupedScenario {
  ShardGroup group;
  struct NodeGroup {
    std::unique_ptr<FlowModel> model;
    Resource* res[2] = {nullptr, nullptr};
    LabelId label = kNoLabel;
    std::vector<Time> completions;
  };
  NodeGroup groups[kGroups];

  static ShardGroup::Options make_options(int shards, Time lookahead) {
    ShardGroup::Options o;
    o.shards = shards;
    o.lookahead = lookahead;
    return o;
  }

  explicit GroupedScenario(int shards, Time lookahead = kNever)
      : group(make_options(shards, lookahead)) {
    for (int g = 0; g < kGroups; ++g) {
      NodeGroup& ng = groups[g];
      group.with_shard(shard_of(g), [&](Engine& eng) {
        ng.model = std::make_unique<FlowModel>(eng);
        ng.res[0] = ng.model->add_resource("g" + std::to_string(g) + ".a", 4.0);
        ng.res[1] = ng.model->add_resource("g" + std::to_string(g) + ".b", 5.0);
        ng.label = eng.intern("churn");
        for (int p = 0; p < kProcsPerGroup; ++p)
          eng.spawn(churn(eng, *ng.model, ng.res[p % 2], ng.res[(p + 1) % 2],
                          ng.label, kActs, &ng.completions));
      });
    }
  }
  ~GroupedScenario() {
    for (int g = 0; g < kGroups; ++g)
      group.with_shard(shard_of(g), [&](Engine&) { groups[g].model.reset(); });
  }
  [[nodiscard]] int shard_of(int g) const { return g % group.shards(); }
  std::uint64_t total_events() {
    std::uint64_t n = 0;
    for (int s = 0; s < group.shards(); ++s) n += group.engine(s).events_dispatched();
    return n;
  }
};

// ---- boundary proxies -------------------------------------------------------

/// One fluid transfer of `work` through `res`; records its finish instant.
sim::Coro one_transfer(Engine& engine, FlowModel& model, Resource* res, double work,
                       std::vector<Time>* done) {
  ActivitySpec spec;
  spec.label = engine.intern("xfer");
  spec.work = work;
  spec.demands.push_back({res, 1.0});
  co_await *model.start(spec);
  done->push_back(engine.now());
}

/// Two shards sharing one boundary link (base 8.0): each runs transfers
/// through its own proxy replica.  Returns the per-shard finish instants.
struct BoundaryScenario {
  ShardGroup group;
  struct Side {
    std::unique_ptr<FlowModel> model;
    Resource* res = nullptr;
    std::vector<Time> done;
  };
  Side side[2];

  static ShardGroup::Options make_options() {
    ShardGroup::Options o;
    o.shards = 2;
    o.lookahead = 1.0;
    return o;
  }

  explicit BoundaryScenario(double work0, double work1) : group(make_options()) {
    const int link = group.add_boundary_link(8.0);
    const double work[2] = {work0, work1};
    for (int s = 0; s < 2; ++s) {
      group.with_shard(s, [&](Engine& eng) {
        side[s].model = std::make_unique<FlowModel>(eng);
        side[s].res = side[s].model->add_resource("proxy" + std::to_string(s), 8.0);
        eng.spawn(one_transfer(eng, *side[s].model, side[s].res, work[s], &side[s].done));
      });
      group.bind_boundary(link, s, side[s].res);
    }
  }
  ~BoundaryScenario() {
    for (int s = 0; s < 2; ++s)
      group.with_shard(s, [&](Engine&) { side[s].model.reset(); });
  }
};

TEST(ShardBoundary, ResidualExchangeSplitsASharedLinkFairly) {
  BoundaryScenario sc(40.0, 40.0);
  sc.group.run();
  ASSERT_EQ(sc.side[0].done.size(), 1u);
  ASSERT_EQ(sc.side[1].done.size(), 1u);
  // Symmetric contenders finish together; the damped exchange throttles
  // both replicas toward base/2, so each transfer lands well past the
  // uncontended 40/8 = 5s and near the fair-share 40/4 = 10s.
  EXPECT_EQ(sc.side[0].done[0], sc.side[1].done[0]);
  EXPECT_GT(sc.side[0].done[0], 7.0);
  EXPECT_LT(sc.side[0].done[0], 12.0);
  EXPECT_GT(sc.group.stats().exchanges, 0u);
  EXPECT_GT(sc.group.stats().windows, 4u);
}

TEST(ShardBoundary, ExchangeRestoresCapacityWhenALoadDrains) {
  BoundaryScenario sc(16.0, 80.0);
  sc.group.run();
  ASSERT_EQ(sc.side[0].done.size(), 1u);
  ASSERT_EQ(sc.side[1].done.size(), 1u);
  const Time short_done = sc.side[0].done[0];
  const Time long_done = sc.side[1].done[0];
  EXPECT_LT(short_done, long_done);
  // The long transfer is slower than uncontended (80/8 = 10s) but much
  // faster than a permanently-halved link (~19s): once the short side
  // drains, the residual exchange hands its bandwidth back.
  EXPECT_GT(long_done, 10.0);
  EXPECT_LT(long_done, 16.0);
  // With both loads gone the replicas converge (and snap) back to base.
  EXPECT_NEAR(sc.side[0].res->capacity(), 8.0, 1e-5);
  EXPECT_NEAR(sc.side[1].res->capacity(), 8.0, 1e-5);
}

TEST(ShardBoundary, ExchangeIsRunToRunDeterministic) {
  std::vector<Time> first;
  std::uint64_t first_windows = 0, first_exchanges = 0;
  for (int run = 0; run < 2; ++run) {
    BoundaryScenario sc(24.0, 56.0);
    sc.group.run();
    std::vector<Time> done;
    for (int s = 0; s < 2; ++s)
      done.insert(done.end(), sc.side[s].done.begin(), sc.side[s].done.end());
    if (run == 0) {
      first = done;
      first_windows = sc.group.stats().windows;
      first_exchanges = sc.group.stats().exchanges;
    } else {
      // Bitwise: completion instants and barrier counters match exactly.
      ASSERT_EQ(done.size(), first.size());
      for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(std::memcmp(&done[i], &first[i], sizeof(Time)), 0) << i;
      EXPECT_EQ(sc.group.stats().windows, first_windows);
      EXPECT_EQ(sc.group.stats().exchanges, first_exchanges);
    }
  }
}

// ---- serial equivalence -----------------------------------------------------

TEST(ShardGroupSerial, SingleShardMatchesPlainEngine) {
  // Reference: the exact same scenario built directly on an Engine.
  obs::Registry ref_reg;
  ref_reg.set_enabled(true);
  Time ref_end = 0.0;
  std::uint64_t ref_events = 0;
  std::vector<std::vector<Time>> ref_completions(kGroups);
  {
    obs::Registry::ScopedThreadLocal scope(ref_reg);
    Engine engine;
    std::vector<std::unique_ptr<FlowModel>> models;
    for (int g = 0; g < kGroups; ++g) {
      auto model = std::make_unique<FlowModel>(engine);
      Resource* res[2] = {model->add_resource("g" + std::to_string(g) + ".a", 4.0),
                          model->add_resource("g" + std::to_string(g) + ".b", 5.0)};
      LabelId label = engine.intern("churn");
      for (int p = 0; p < kProcsPerGroup; ++p)
        engine.spawn(churn(engine, *model, res[p % 2], res[(p + 1) % 2], label,
                           kActs, &ref_completions[g]));
      models.push_back(std::move(model));
    }
    ref_end = engine.run();
    ref_events = engine.events_dispatched();
  }

  obs::Registry shard_reg;
  shard_reg.set_enabled(true);
  Time end = 0.0;
  std::uint64_t events = 0;
  std::vector<std::vector<Time>> completions(kGroups);
  {
    obs::Registry::ScopedThreadLocal scope(shard_reg);
    GroupedScenario s(1);
    end = s.group.run();
    events = s.total_events();
    for (int g = 0; g < kGroups; ++g) completions[g] = s.groups[g].completions;
  }

  EXPECT_EQ(end, ref_end);  // bitwise: both are the same double computation
  EXPECT_EQ(events, ref_events);
  for (int g = 0; g < kGroups; ++g) EXPECT_EQ(completions[g], ref_completions[g]);
  EXPECT_EQ(snapshot_text(shard_reg.snapshot()), snapshot_text(ref_reg.snapshot()));
}

// ---- determinism ------------------------------------------------------------

struct ShardRunResult {
  Time end = 0.0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::vector<std::vector<Time>> completions;
  std::string metrics;
  std::string timeline_csv;
};

ShardRunResult run_sharded(int shards, Time lookahead, bool with_timeline) {
  ShardRunResult out;
  out.completions.resize(kGroups);
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Registry::ScopedThreadLocal scope(reg);
  // Optional simulated-time sampling: every shard engine samples into its
  // own store, and merge_obs() folds them into this one.
  obs::TimelineStore store;
  obs::RunSampling rs;
  if (with_timeline) {
    rs.timeline_period = 0.25;
    rs.timeline = &store;
  }
  obs::ScopedRunSampling sampling(rs);
  GroupedScenario s(shards, lookahead);
  out.end = s.group.run();
  out.events = s.total_events();
  out.windows = s.group.stats().windows;
  for (int g = 0; g < kGroups; ++g) out.completions[g] = s.groups[g].completions;
  s.group.merge_obs(reg);
  out.metrics = snapshot_text(reg.snapshot());
  std::ostringstream csv;
  store.write_csv(csv);
  if (store.size() > 0) out.timeline_csv = csv.str();
  return out;
}

TEST(ShardGroupDeterminism, FourShardsRunToRunBitwiseIdentical) {
  const ShardRunResult a = run_sharded(4, 3.0, /*with_timeline=*/true);
  const ShardRunResult b = run_sharded(4, 3.0, /*with_timeline=*/true);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_FALSE(a.timeline_csv.empty());
  EXPECT_EQ(a.timeline_csv, b.timeline_csv);
  // Every shard's series arrive under its "shard<N>." name.
  for (int sh = 0; sh < 4; ++sh)
    EXPECT_NE(a.timeline_csv.find(",shard" + std::to_string(sh) + ".sim.engine.events_dispatched,"),
              std::string::npos)
        << "shard " << sh;
}

TEST(ShardGroupDeterminism, ShardClosedRunsIdenticalAcrossShardCounts) {
  // Shard-closed scenario (kNever lookahead): the node groups never
  // interact, so the per-group event sequences — and every completion
  // instant — are a pure function of the group, not of the partition.
  const ShardRunResult one = run_sharded(1, kNever, /*with_timeline=*/false);
  const ShardRunResult two = run_sharded(2, kNever, /*with_timeline=*/false);
  const ShardRunResult four = run_sharded(4, kNever, /*with_timeline=*/false);
  EXPECT_EQ(one.completions, two.completions);
  EXPECT_EQ(one.completions, four.completions);
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.end, two.end);
  EXPECT_EQ(one.end, four.end);
  // Windowing differs by design: serial runs take the fast path (0), and a
  // shard-closed multi-shard run needs exactly one window.
  EXPECT_EQ(one.windows, 0u);
  EXPECT_EQ(two.windows, 1u);
  EXPECT_EQ(four.windows, 1u);
}

TEST(ShardGroupDeterminism, FiniteLookaheadMatchesShardClosedResults) {
  // Windowed execution changes the barrier schedule, never the physics.
  const ShardRunResult closed = run_sharded(4, kNever, /*with_timeline=*/false);
  const ShardRunResult windowed = run_sharded(4, 2.5, /*with_timeline=*/false);
  EXPECT_EQ(closed.completions, windowed.completions);
  EXPECT_EQ(closed.events, windowed.events);
  EXPECT_EQ(closed.end, windowed.end);
  EXPECT_GT(windowed.windows, 1u);
}

// ---- jobs on every shard at once ---------------------------------------------

ShardGroup::Options shard_options(int shards) {
  ShardGroup::Options o;
  o.shards = shards;
  return o;
}

TEST(ShardGroupEach, RunsOnceOnEveryShardOnItsWorker) {
  ShardGroup group(shard_options(4));
  std::vector<std::thread::id> worker(4);
  for (int s = 0; s < 4; ++s)
    group.with_shard(s, [&worker, s](Engine&) {
      worker[static_cast<std::size_t>(s)] = std::this_thread::get_id();
    });
  std::vector<int> runs(4, 0);
  std::vector<std::thread::id> ran_on(4);
  std::vector<Engine*> engine(4, nullptr);
  group.with_each_shard([&](int s, Engine& eng) {
    const auto i = static_cast<std::size_t>(s);
    ++runs[i];
    ran_on[i] = std::this_thread::get_id();
    engine[i] = &eng;
  });
  for (int s = 0; s < 4; ++s) {
    const auto i = static_cast<std::size_t>(s);
    EXPECT_EQ(runs[i], 1) << "shard " << s;
    EXPECT_EQ(ran_on[i], worker[i]) << "shard " << s;
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "shard " << s;
    EXPECT_EQ(engine[i], &group.engine(s)) << "shard " << s;
  }
}

TEST(ShardGroupEach, RethrowsTheLowestShardErrorOnceEveryJobFinished) {
  ShardGroup group(shard_options(4));
  // Shards 0 and 3 return at once, shard 3 with an error; shard 1 throws
  // later, and shard 2 finishes last.
  std::atomic<int> finished{0};
  try {
    group.with_each_shard([&finished](int s, Engine&) {
      if (s == 3) throw std::runtime_error("shard 3");
      if (s != 0) std::this_thread::sleep_for(std::chrono::milliseconds(s == 1 ? 20 : 60));
      if (s == 1) throw std::runtime_error("shard 1");
      finished.fetch_add(1);
    });
    FAIL() << "expected the shard 1 error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
    EXPECT_EQ(finished.load(), 2);
  }
  // Shard 3's error was cleared with it: the next call runs clean.
  EXPECT_NO_THROW(group.with_each_shard([](int, Engine&) {}));
  EXPECT_NO_THROW(group.with_shard(3, [](Engine&) {}));
}

TEST(ShardGroupEach, RunsInlineAtOneShard) {
  ShardGroup group(shard_options(1));
  int calls = 0;
  std::thread::id ran_on;
  group.with_each_shard([&](int s, Engine& eng) {
    ++calls;
    EXPECT_EQ(s, 0);
    EXPECT_EQ(&eng, &group.engine(0));
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(group.with_each_shard([](int, Engine&) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

// ---- error propagation ------------------------------------------------------

TEST(ShardGroupErrors, WatchdogTripOnAWorkerPropagatesToRun) {
  GroupedScenario s(2);
  s.group.with_shard(0, [](Engine& eng) {
    WatchdogConfig w;
    w.max_events = 16;  // far below what the churn workload dispatches
    eng.set_watchdog(w);
  });
  EXPECT_THROW(s.group.run(), SimStalled);
}

TEST(ShardGroupErrors, StallNamesTheWedgedShardAndWindow) {
  GroupedScenario s(2);
  s.group.with_shard(1, [](Engine& eng) {
    WatchdogConfig w;
    w.max_events = 16;
    eng.set_watchdog(w);
  });
  try {
    s.group.run();
    FAIL() << "expected SimStalled";
  } catch (const SimStalled& stalled) {
    // The group-level rewrap prepends which shard wedged in which window;
    // the engine-level inspector lines (if any) follow untouched.
    ASSERT_FALSE(stalled.blocked().empty());
    const std::string& head = stalled.blocked().front();
    EXPECT_NE(head.find("shard 1"), std::string::npos) << head;
    EXPECT_NE(head.find("window 0"), std::string::npos) << head;
    EXPECT_NE(head.find("horizon"), std::string::npos) << head;
    EXPECT_NE(std::string(stalled.what()).find("wedged in window"), std::string::npos);
  }
}

/// Every shard ticks once per window; shards 1 and 3 throw at their tick
/// in window kFailWindow.  Each still reaches the barrier, so the run ends
/// after that window, no shard starts the next one, and shard 1's error
/// is rethrown once: a later run() proceeds cleanly.
TEST(ShardGroupErrors, AShardThatThrowsEndsTheRunAfterItsWindow) {
  constexpr int kTicks = 8;
  constexpr int kFailWindow = 3;
  ShardGroup::Options o;
  o.shards = 4;
  o.lookahead = 0.75;  // window k holds exactly tick k, at t = k + 0.5
  ShardGroup group(o);
  std::vector<int> ticks(4, 0);
  group.with_each_shard([&ticks](int s, Engine& eng) {
    for (int k = 0; k < kTicks; ++k)
      eng.call_at(static_cast<double>(k) + 0.5, [&ticks, s, k] {
        if (k == kFailWindow && s % 2 == 1)
          throw std::runtime_error("shard " + std::to_string(s));
        ++ticks[static_cast<std::size_t>(s)];
      });
  });
  try {
    group.run();
    FAIL() << "expected the shard 1 error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
  }
  EXPECT_EQ(group.stats().windows, static_cast<std::uint64_t>(kFailWindow));
  EXPECT_EQ(ticks, (std::vector<int>{kFailWindow + 1, kFailWindow, kFailWindow + 1, kFailWindow}));
  for (int s = 0; s < 4; ++s)
    EXPECT_LE(group.engine(s).now(), static_cast<double>(kFailWindow) + 1.25) << "shard " << s;
  // Shard 3's error went with shard 1's: the next run finishes every tick.
  EXPECT_NO_THROW(group.run());
  EXPECT_EQ(ticks, (std::vector<int>{kTicks, kTicks - 1, kTicks, kTicks - 1}));
}

/// The barrier probe runs on the last worker to arrive; if it throws, the
/// other workers must still be released and the error must reach run().
TEST(ShardGroupErrors, AThrowingBarrierProbeEndsTheRun) {
  BoundaryScenario s(4.0, 4.0);
  int probes = 0;
  s.group.set_barrier_probe([&probes](Time) {
    ++probes;
    throw std::runtime_error("probe");
  });
  EXPECT_THROW(s.group.run(), std::runtime_error);
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(s.group.stats().windows, 1u);
  s.group.set_barrier_probe(nullptr);
  EXPECT_NO_THROW(s.group.run());
  EXPECT_EQ(s.side[0].done.size(), 1u);
  EXPECT_EQ(s.side[1].done.size(), 1u);
}

TEST(ShardGroupErrors, InvalidLookaheadRejectedAtConstruction) {
  ShardGroup::Options o;
  o.shards = 2;
  o.lookahead = 0.0;
  EXPECT_THROW(ShardGroup g(o), std::invalid_argument);
}

TEST(ShardGroupErrors, ShardCountBelowOneRejectedAtConstruction) {
  for (int shards : {0, -3}) {
    try {
      ShardGroup g(shard_options(shards));
      ADD_FAILURE() << "shards = " << shards << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(shards)),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- the coordinating thread's worker pool -----------------------------------

/// Run `fn` on a fresh thread, whose shard pool starts empty, and join it.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

/// The worker thread of every shard of `group`.
std::vector<std::thread::id> worker_ids(ShardGroup& group) {
  std::vector<std::thread::id> ids(static_cast<std::size_t>(group.shards()));
  group.with_each_shard(
      [&ids](int s, Engine&) { ids[static_cast<std::size_t>(s)] = std::this_thread::get_id(); });
  return ids;
}

TEST(ShardPool, GroupsInARowRunOnTheSameWorkers) {
  on_fresh_thread([] {
    EXPECT_EQ(ShardGroup::pooled_workers(), 0);
    std::vector<std::thread::id> first;
    {
      ShardGroup group(shard_options(4));
      EXPECT_EQ(ShardGroup::pooled_workers(), 4);
      first = worker_ids(group);
    }
    for (std::thread::id id : first) EXPECT_NE(id, std::this_thread::get_id());
    {
      ShardGroup group(shard_options(4));
      EXPECT_EQ(worker_ids(group), first);
    }
    {
      // Fewer shards borrow the first workers; none starts a thread.
      ShardGroup group(shard_options(2));
      EXPECT_EQ(worker_ids(group), std::vector<std::thread::id>(first.begin(), first.begin() + 2));
    }
    EXPECT_EQ(ShardGroup::pooled_workers(), 4);
  });
}

TEST(ShardPool, OverlappingGroupsShareTheWorkers) {
  on_fresh_thread([] {
    GroupedScenario outer(4, 2.5);
    {
      // A second group alive at once, built and run on the same workers.
      GroupedScenario inner(2, 2.5);
      inner.group.run();
      EXPECT_EQ(ShardGroup::pooled_workers(), 4);
    }
    outer.group.run();
    const ShardRunResult ref = run_sharded(4, 2.5, /*with_timeline=*/false);
    for (int g = 0; g < kGroups; ++g) EXPECT_EQ(outer.groups[g].completions, ref.completions[g]);
  });
}

TEST(ShardPool, ARepeatedRunMatchesAFreshThread) {
  ShardRunResult fresh;
  on_fresh_thread([&fresh] { fresh = run_sharded(4, 3.0, /*with_timeline=*/true); });
  on_fresh_thread([&fresh] {
    // An unsampled run first: the sampled one after it on warm workers
    // writes the same rows.
    (void)run_sharded(4, 3.0, /*with_timeline=*/false);
    const ShardRunResult warm = run_sharded(4, 3.0, /*with_timeline=*/true);
    EXPECT_EQ(warm.end, fresh.end);
    EXPECT_EQ(warm.events, fresh.events);
    EXPECT_EQ(warm.windows, fresh.windows);
    EXPECT_EQ(warm.completions, fresh.completions);
    EXPECT_EQ(warm.metrics, fresh.metrics);
    EXPECT_FALSE(warm.timeline_csv.empty());
    EXPECT_EQ(warm.timeline_csv, fresh.timeline_csv);
  });
}

TEST(ShardPool, ARegistryOffGroupAfterARegistryOnOneAddsNothing) {
  on_fresh_thread([] {
    obs::Registry on;
    on.set_enabled(true);
    {
      obs::Registry::ScopedThreadLocal scope(on);
      GroupedScenario s(4, 2.5);
      s.group.run();
      s.group.merge_obs(on);
    }
    const std::string on_text = snapshot_text(on.snapshot());
    ASSERT_NE(on_text.find("sim.shard.windows"), std::string::npos);
    const std::string process_text = snapshot_text(obs::Registry::process().snapshot());
    obs::Registry off;
    off.set_enabled(false);
    {
      obs::Registry::ScopedThreadLocal scope(off);
      GroupedScenario s(4, 2.5);
      s.group.run();
      s.group.merge_obs(off);
    }
    // A disabled registry still names what binds to it, and records nothing.
    for (const obs::Snapshot::Entry& e : off.snapshot().entries) {
      EXPECT_EQ(e.value, 0.0) << e.name;
      EXPECT_EQ(e.count, 0u) << e.name;
      EXPECT_EQ(e.sum, 0.0) << e.name;
    }
    EXPECT_EQ(snapshot_text(on.snapshot()), on_text);
    EXPECT_EQ(snapshot_text(obs::Registry::process().snapshot()), process_text);
  });
}

TEST(ShardPool, ConcurrentCoordinatorsKeepTheirOwnWorkers) {
  const ShardRunResult ref = run_sharded(4, 2.5, /*with_timeline=*/false);
  ShardRunResult got[2];
  std::vector<std::thread::id> ids[2];
  std::thread coordinators[2];
  for (int c = 0; c < 2; ++c)
    coordinators[c] = std::thread([&got, &ids, c] {
      got[c] = run_sharded(4, 2.5, /*with_timeline=*/false);
      obs::Registry reg;  // not the process registry the other coordinator sees
      obs::Registry::ScopedThreadLocal scope(reg);
      ShardGroup group(shard_options(4));
      ids[c] = worker_ids(group);
    });
  for (std::thread& t : coordinators) t.join();
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(got[c].completions, ref.completions) << "coordinator " << c;
    EXPECT_EQ(got[c].events, ref.events) << "coordinator " << c;
    EXPECT_EQ(got[c].metrics, ref.metrics) << "coordinator " << c;
  }
  for (std::thread::id id : ids[0])
    EXPECT_EQ(std::count(ids[1].begin(), ids[1].end(), id), 0);
}

TEST(ShardPool, AGroupAfterFailedJobsRunsNormally) {
  on_fresh_thread([] {
    {
      ShardGroup group(shard_options(4));
      EXPECT_THROW(group.with_each_shard([](int s, Engine&) {
        if (s % 2 == 1) throw std::runtime_error("shard " + std::to_string(s));
      }),
                   std::runtime_error);
    }
    {
      GroupedScenario s(2);
      s.group.with_shard(1, [](Engine& eng) {
        WatchdogConfig w;
        w.max_events = 16;
        eng.set_watchdog(w);
      });
      EXPECT_THROW(s.group.run(), SimStalled);
    }
    const ShardRunResult ref = run_sharded(4, 2.5, /*with_timeline=*/false);
    ShardRunResult fresh;
    on_fresh_thread([&fresh] { fresh = run_sharded(4, 2.5, /*with_timeline=*/false); });
    EXPECT_EQ(ref.completions, fresh.completions);
    EXPECT_EQ(ref.windows, fresh.windows);
    EXPECT_EQ(ref.metrics, fresh.metrics);
  });
}

#ifdef __linux__
/// Threads of this process, from /proc.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(ShardPool, AnExitingCoordinatorJoinsItsWorkers) {
  // A thread started and joined first, so helper threads a runtime starts
  // with the first one (a sanitizer's) are in the baseline.
  std::thread([] {}).join();
  const std::size_t before = process_threads();
  on_fresh_thread([before] {
    (void)run_sharded(4, 2.5, /*with_timeline=*/false);
    EXPECT_EQ(ShardGroup::pooled_workers(), 4);
    EXPECT_EQ(process_threads(), before + 5);  // the coordinator and its workers
  });
  // A joined thread leaves the task list a moment after join() returns.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (process_threads() != before && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(process_threads(), before);
}
#endif

}  // namespace
}  // namespace cci::sim
