// Engine fundamentals: clock, timers, process lifecycle, determinism.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace cci::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.call_at(2.0, [&] { order.push_back(2); });
  engine.call_at(1.0, [&] { order.push_back(1); });
  engine.call_at(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, SameInstantCallbacksRunInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.call_at(1.0, [&, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CancelledCallbackDoesNotRun) {
  Engine engine;
  bool ran = false;
  auto h = engine.call_at(1.0, [&] { ran = true; });
  h.cancel();
  engine.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine engine;
  bool late = false;
  engine.call_at(5.0, [&] { late = true; });
  Time t = engine.run(2.0);
  EXPECT_EQ(t, 2.0);
  EXPECT_FALSE(late);
  engine.run();
  EXPECT_TRUE(late);
}

TEST(Engine, RunUntilAPastHorizonNeverRewindsTheClock) {
  // A horizon behind the clock must leave it alone: rewinding would let the
  // still-pending event at 20 appear to lie further ahead than it does.
  Engine engine;
  std::vector<Time> fired;
  engine.call_at(10.0, [&] { fired.push_back(engine.now()); });
  engine.call_at(20.0, [&] { fired.push_back(engine.now()); });
  EXPECT_EQ(engine.run(15.0), 15.0);
  EXPECT_EQ(engine.run(5.0), 15.0);
  EXPECT_EQ(engine.now(), 15.0);
  EXPECT_EQ(engine.next_event_time(), 20.0);
  EXPECT_EQ(engine.run(), 20.0);
  EXPECT_EQ(fired, (std::vector<Time>{10.0, 20.0}));
}

Coro sleeper(Engine& engine, std::vector<Time>& wakes) {
  co_await engine.sleep(1.5);
  wakes.push_back(engine.now());
  co_await engine.sleep(0.5);
  wakes.push_back(engine.now());
}

TEST(Engine, ProcessSleepAdvancesClock) {
  Engine engine;
  std::vector<Time> wakes;
  engine.spawn(sleeper(engine, wakes));
  engine.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_DOUBLE_EQ(wakes[0], 1.5);
  EXPECT_DOUBLE_EQ(wakes[1], 2.0);
  EXPECT_EQ(engine.live_processes(), 0);
}

Coro child(Engine& engine, int& counter, OneShotEvent* done) {
  co_await engine.sleep(1.0);
  ++counter;
  done->set();
}

Coro parent(Engine& engine, int& counter, Time& join_time) {
  OneShotEvent finished(engine);
  engine.spawn(child(engine, counter, &finished));
  co_await finished;
  join_time = engine.now();
  ++counter;
}

TEST(Engine, JoinWaitsForChildCompletion) {
  Engine engine;
  int counter = 0;
  Time join_time = -1.0;
  engine.spawn(parent(engine, counter, join_time));
  engine.run();
  EXPECT_EQ(counter, 2);
  EXPECT_DOUBLE_EQ(join_time, 1.0);
}

TEST(Engine, JoiningFinishedProcessDoesNotBlock) {
  Engine engine;
  int counter = 0;
  OneShotEvent finished(engine);
  engine.spawn(child(engine, counter, &finished));
  engine.run();
  ASSERT_TRUE(finished.is_set());
  Time join_time = -1.0;
  engine.spawn([](Engine& e, OneShotEvent& f, Time& jt) -> Coro {
    co_await f;
    jt = e.now();
  }(engine, finished, join_time));
  engine.run();
  EXPECT_DOUBLE_EQ(join_time, 1.0);  // joined instantly at current time
}

TEST(Engine, YieldRunsAfterEventsAtSameInstant) {
  Engine engine;
  std::vector<int> order;
  engine.spawn([](Engine& e, std::vector<int>& o) -> Coro {
    o.push_back(1);
    co_await e.yield();
    o.push_back(3);
  }(engine, order));
  engine.call_at(0.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, WakeUpAtAQueuedCallbacksInstantRunsAfterIt) {
  // The callback holds the smaller sequence number, so it goes first even
  // though the wake-up is the earliest event at the moment it is asked for.
  Engine engine;
  std::vector<int> order;
  engine.call_at(1.0, [&] { order.push_back(2); });
  engine.spawn([](Engine& e, std::vector<int>& o) -> Coro {
    o.push_back(1);
    co_await e.sleep_until(1.0);
    o.push_back(3);
  }(engine, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, LoneTickerStopsAtTheRunHorizon) {
  // Nothing else is queued, so every wake-up is the earliest event; the
  // horizon alone must stop the ticker.
  Engine engine;
  int ticks = 0;
  engine.spawn([](Engine& e, int& n) -> Coro {
    for (;;) {
      ++n;
      co_await e.sleep(1.0);
    }
  }(engine, ticks));
  EXPECT_EQ(engine.run(2.5), 2.5);
  EXPECT_EQ(engine.now(), 2.5);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(engine.next_event_time(), 3.0);
  // The spawn went through the queue; the wake-ups at 1 s and 2 s did not.
  EXPECT_EQ(engine.events_dispatched(), 3u);
  EXPECT_EQ(engine.events_in_place(), 2u);
}

TEST(Engine, BlockedProcessIsReclaimedAtEngineDestruction) {
  // A process waiting forever must not leak (ASan would flag it).
  auto engine = std::make_unique<Engine>();
  auto forever = [](Engine& e) -> Coro { co_await e.sleep(kNever); };
  engine->spawn(forever(*engine));
  engine->run(10.0);
  EXPECT_EQ(engine->live_processes(), 1);
  engine.reset();  // must destroy the suspended frame
}

TEST(Engine, ManyProcessesDeterministicInterleaving) {
  auto run_once = [] {
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      engine.spawn([](Engine& e, std::vector<int>& o, int id) -> Coro {
        co_await e.sleep(0.001 * (id % 7));
        o.push_back(id);
        co_await e.sleep(0.001 * (id % 3));
        o.push_back(100 + id);
      }(engine, order, i));
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- sampling ---------------------------------------------------------------

TEST(EngineSampling, NoAmbientSamplingMeansNoSampler) {
  Engine engine;
  EXPECT_EQ(engine.sampler(), nullptr);
}

/// (time, value) of every `sim.engine.events_dispatched` row, in order.
std::vector<std::pair<double, double>> event_rows(const obs::TimelineStore& store) {
  std::vector<std::pair<double, double>> rows;
  for (std::size_t i = 0; i < store.size(); ++i)
    if (store.series_names()[store.row(i).series] == "sim.engine.events_dispatched")
      rows.emplace_back(store.row(i).time, store.row(i).value);
  return rows;
}

TEST(EngineSampling, EachEngineAppendsASegmentOfItsOwnDeltas) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Registry::ScopedThreadLocal scope(reg);
  obs::TimelineStore store;
  obs::RunSampling rs;
  rs.timeline_period = 1.0;
  rs.timeline = &store;
  obs::ScopedRunSampling sampling(rs);
  {
    Engine first;
    ASSERT_NE(first.sampler(), nullptr);
    for (double t : {0.5, 0.6, 0.7, 1.5}) first.call_at(t, [] {});
    first.run();
  }
  {
    // Built after the first engine's 4 events: its segment starts again at
    // t = 0 and counts only its own.
    Engine second;
    for (double t : {0.5, 1.5, 2.5}) second.call_at(t, [] {});
    second.run();
  }
  const std::vector<std::pair<double, double>> want = {{1.0, 3.0}, {1.0, 1.0}, {2.0, 1.0}};
  EXPECT_EQ(event_rows(store), want);
}

}  // namespace
}  // namespace cci::sim
