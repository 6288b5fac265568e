// Watchdog: event budgets, livelock detection, blocked-process reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "sim/flow_model.hpp"
#include "sim/stall.hpp"

namespace cci::sim {
namespace {

Coro ticker(Engine& engine) {
  for (;;) co_await engine.sleep(1e-3);
}

TEST(Watchdog, EventBudgetTripsOnRunawaySimulation) {
  // Each tick is the earliest event, which would run in place without a
  // watchdog; armed, every wake-up goes through the queue and run() counts
  // it.  5000 also crosses the every-4096-events queue audit.  Both budgets
  // must trip on the exact event.
  for (const std::uint64_t budget : {std::uint64_t{50}, std::uint64_t{5000}}) {
    Engine engine;
    WatchdogConfig cfg;
    cfg.max_events = budget;
    engine.set_watchdog(cfg);
    engine.spawn(ticker(engine));
    try {
      engine.run();
      FAIL() << "expected SimStalled";
    } catch (const SimStalled& e) {
      EXPECT_EQ(e.reason(), StallReason::kEventBudget);
      EXPECT_EQ(e.events(), budget);
      EXPECT_GT(e.at(), 0.0);  // time was advancing; this is a runaway, not a livelock
    }
    EXPECT_EQ(engine.events_dispatched(), budget);
    EXPECT_EQ(engine.events_in_place(), 0u);
  }
}

TEST(Watchdog, PerInstantBudgetTripsOnLivelock) {
  Engine engine;
  WatchdogConfig cfg;
  cfg.max_events_per_instant = 200;
  engine.set_watchdog(cfg);
  // An event that reposts itself at the current instant: time never advances.
  std::function<void()> storm = [&] { engine.call_at(engine.now(), storm); };
  engine.call_at(0.5, storm);
  try {
    engine.run();
    FAIL() << "expected SimStalled";
  } catch (const SimStalled& e) {
    EXPECT_EQ(e.reason(), StallReason::kNoProgress);
    EXPECT_DOUBLE_EQ(e.at(), 0.5);
  }
}

TEST(Watchdog, YieldLoopTripsThePerInstantBudgetFromRun) {
  // Every yield is the earliest event, which would run in place without a
  // watchdog; armed, the yields go through the queue, so the budget stops
  // the loop from run() instead of it spinning inside the coroutine.
  Engine engine;
  WatchdogConfig cfg;
  cfg.max_events_per_instant = 200;
  engine.set_watchdog(cfg);
  engine.spawn([](Engine& e) -> Coro {
    for (;;) co_await e.yield();
  }(engine));
  try {
    engine.run();
    FAIL() << "expected SimStalled";
  } catch (const SimStalled& e) {
    EXPECT_EQ(e.reason(), StallReason::kNoProgress);
    EXPECT_EQ(e.at(), 0.0);
    EXPECT_EQ(e.events(), 200u);
  }
}

TEST(Watchdog, DrainWithBlockedProcessNamesTheStalledActivity) {
  obs::Registry::global().set_enabled(true);
  obs::Registry::global().reset();
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  WatchdogConfig cfg;
  cfg.report_blocked_on_drain = true;
  engine.set_watchdog(cfg);
  ActivitySpec spec;
  spec.label = engine.intern("doomed-transfer");
  spec.work = 100.0;
  spec.demands = {{pipe, 1.0}};
  auto act = model.start(spec);
  engine.spawn([](ActivityPtr a) -> Coro { co_await a->done(); }(act));
  engine.call_at(1.0, [&] { pipe->set_capacity(0.0); });  // rate -> 0 forever
  try {
    engine.run();
    FAIL() << "expected SimStalled";
  } catch (const SimStalled& e) {
    EXPECT_EQ(e.reason(), StallReason::kBlockedProcesses);
    EXPECT_GE(e.live_processes(), 1);
    ASSERT_FALSE(e.blocked().empty());
    bool named = false;
    for (const std::string& b : e.blocked())
      if (b.find("doomed-transfer") != std::string::npos &&
          b.find("STALLED") != std::string::npos)
        named = true;
    EXPECT_TRUE(named) << e.what();
  }
  EXPECT_GE(obs::Registry::global().counter("sim.watchdog_trips").value(), 1.0);
  obs::Registry::global().set_enabled(false);
}

TEST(Watchdog, HealthyRunUnderFullGuardsDoesNotTrip) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  WatchdogConfig cfg;
  cfg.max_events = 100000;
  cfg.max_events_per_instant = 10000;
  cfg.report_blocked_on_drain = true;
  engine.set_watchdog(cfg);
  ActivitySpec spec;
  spec.label = engine.intern("fine");
  spec.work = 50.0;
  spec.demands = {{pipe, 1.0}};
  auto act = model.start(spec);
  engine.spawn([](ActivityPtr a) -> Coro { co_await a->done(); }(act));
  EXPECT_NO_THROW(engine.run());
  EXPECT_TRUE(act->finished());
}

TEST(Watchdog, OffByDefault) {
  Engine engine;
  EXPECT_FALSE(engine.watchdog().any());
}

}  // namespace
}  // namespace cci::sim
