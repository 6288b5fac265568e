// FlowModel: fluid progress, sharing dynamics, capacity changes, stalls.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "sim/flow_model.hpp"

namespace cci::sim {
namespace {

ActivitySpec flow_through(Resource* r, double work, double demand = 1.0) {
  ActivitySpec spec;
  spec.work = work;
  spec.demands = {{r, demand}};
  return spec;
}

TEST(FlowModel, SingleActivityFinishesAtWorkOverCapacity) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 50.0));
  engine.run();
  EXPECT_TRUE(act->finished());
  EXPECT_DOUBLE_EQ(act->finished_at(), 5.0);
}

TEST(FlowModel, TwoActivitiesHalveEachOthersRate) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto a = model.start(flow_through(pipe, 50.0));
  auto b = model.start(flow_through(pipe, 50.0));
  engine.run();
  // Both share 10 -> each at 5 -> both finish at t=10.
  EXPECT_DOUBLE_EQ(a->finished_at(), 10.0);
  EXPECT_DOUBLE_EQ(b->finished_at(), 10.0);
}

TEST(FlowModel, LateArrivalSlowsFirstFlow) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto a = model.start(flow_through(pipe, 100.0));
  ActivityPtr b;
  engine.call_at(5.0, [&] { b = model.start(flow_through(pipe, 25.0)); });
  engine.run();
  // a: 5s at rate 10 (50 done), then shares at 5 until b (25 work) finishes
  // at t=10; a has 75 done, finishes remaining 25 at rate 10 by t=12.5.
  EXPECT_NEAR(b->finished_at(), 10.0, 1e-9);
  EXPECT_NEAR(a->finished_at(), 12.5, 1e-9);
}

TEST(FlowModel, CompletionReleasesBandwidthToSurvivors) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 8.0);
  auto small = model.start(flow_through(pipe, 8.0));
  auto large = model.start(flow_through(pipe, 40.0));
  engine.run();
  EXPECT_NEAR(small->finished_at(), 2.0, 1e-9);   // 8 work at rate 4
  EXPECT_NEAR(large->finished_at(), 6.0, 1e-9);   // 8 done by t=2, 32 left at 8
}

TEST(FlowModel, CapacityDropStretchesCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 100.0));
  engine.call_at(4.0, [&] { pipe->set_capacity(2.0); });
  engine.run();
  // 40 done at t=4; remaining 60 at rate 2 -> t = 4 + 30 = 34.
  EXPECT_NEAR(act->finished_at(), 34.0, 1e-9);
}

TEST(FlowModel, ZeroCapacityStallsUntilRestored) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 100.0));
  engine.call_at(2.0, [&] { pipe->set_capacity(0.0); });
  engine.call_at(7.0, [&] { pipe->set_capacity(10.0); });
  engine.run();
  // 20 done by t=2, stalled 5s, 80 left at 10 -> t = 7 + 8 = 15.
  EXPECT_NEAR(act->finished_at(), 15.0, 1e-9);
}

TEST(FlowModel, RateCapLimitsUncontendedFlow) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 100.0);
  ActivitySpec spec = flow_through(pipe, 30.0);
  spec.rate_cap = 3.0;
  auto act = model.start(spec);
  engine.run();
  EXPECT_NEAR(act->finished_at(), 10.0, 1e-9);
  EXPECT_NEAR(act->rate(), 0.0, 1e-12);  // cleared after completion
}

TEST(FlowModel, ZeroWorkActivityCompletesImmediately) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 1.0);
  auto act = model.start(flow_through(pipe, 0.0));
  EXPECT_TRUE(act->finished());
  EXPECT_DOUBLE_EQ(act->finished_at(), 0.0);
}

TEST(FlowModel, CancelRemovesActivityWithoutCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto doomed = model.start(flow_through(pipe, 1000.0));
  auto other = model.start(flow_through(pipe, 50.0));
  engine.call_at(1.0, [&] { model.cancel(doomed); });
  engine.run();
  EXPECT_FALSE(doomed->finished());
  // other: 5 done at t=1 (shared), then full rate: (50-5)/10 -> t=5.5.
  EXPECT_NEAR(other->finished_at(), 5.5, 1e-9);
}

TEST(FlowModel, RooflineCoupledActivityTakesTheBindingResource) {
  // A compute chunk demanding both core flops and memory bytes advances at
  // min(core share / flops-per-unit, memory share / bytes-per-unit).
  Engine engine;
  FlowModel model(engine);
  Resource* core = model.add_resource("core", 10e9);  // 10 Gflop/s
  Resource* mem = model.add_resource("mem", 20e9);    // 20 GB/s

  // High arithmetic intensity: 10 flop per byte -> core-bound.
  ActivitySpec cpu_bound;
  cpu_bound.work = 1e9;  // units
  cpu_bound.demands = {{core, 10.0}, {mem, 1.0}};
  auto a = model.start(cpu_bound);
  engine.run();
  EXPECT_NEAR(a->duration(), 1.0, 1e-9);  // 1e9 units * 10 flop / 10e9

  // Low arithmetic intensity: 0.1 flop per byte -> memory-bound.
  ActivitySpec mem_bound;
  mem_bound.work = 1e9;
  mem_bound.demands = {{core, 0.1}, {mem, 1.0}};
  auto b = model.start(mem_bound);
  engine.run();
  EXPECT_NEAR(b->duration(), 1e9 / 20e9, 1e-12);
}

TEST(FlowModel, UtilizationTracksAllocatedLoad) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  ActivitySpec spec = flow_through(pipe, 1000.0);
  spec.rate_cap = 4.0;
  model.start(spec);
  engine.run(0.1);
  EXPECT_NEAR(pipe->load(), 4.0, 1e-9);
  EXPECT_NEAR(pipe->utilization(), 0.4, 1e-9);
}

Coro await_activity(Engine& engine, FlowModel& model, Resource* pipe, Time& done_at) {
  ActivitySpec spec;
  spec.work = 20.0;
  spec.demands = {{pipe, 1.0}};
  auto act = model.start(spec);
  co_await *act;
  done_at = engine.now();
}

TEST(FlowModel, ProcessCanAwaitActivityCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 4.0);
  Time done_at = -1.0;
  engine.spawn(await_activity(engine, model, pipe, done_at));
  engine.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}


/// Capacity changes before traffic, then two flows, with the registry as
/// given: the solver's solve count and each flow's finish.
struct FlowlessRun {
  std::uint64_t solves_before_traffic = 0;
  std::uint64_t solves = 0;
  double resolves = 0.0;  ///< sim.flow.resolves
  double finish_a = 0.0;
  double finish_b = 0.0;
};

FlowlessRun run_with_flowless_changes(bool registry_on) {
  obs::Registry reg;
  reg.set_enabled(registry_on);
  const obs::Registry::ScopedThreadLocal scope(reg);
  Engine engine;
  FlowModel model(engine);
  Resource* a = model.add_resource("a", 10.0);
  Resource* b = model.add_resource("b", 10.0);
  a->set_capacity(8.0);  // machine clocks set as a cluster is built
  b->set_capacity(4.0);
  a->set_capacity(6.0);
  FlowlessRun out;
  out.solves_before_traffic = model.solver().stats().solves;
  auto fa = model.start(flow_through(a, 30.0));
  auto fb = model.start(flow_through(b, 20.0));
  engine.run();
  out.solves = model.solver().stats().solves;
  out.resolves = reg.snapshot().value_of("sim.flow.resolves");
  out.finish_a = fa->finished_at();
  out.finish_b = fb->finished_at();
  return out;
}

TEST(FlowModel, CapacityChangesBeforeTrafficSolveNothingWithTheRegistryOff) {
  const FlowlessRun off = run_with_flowless_changes(false);
  const FlowlessRun on = run_with_flowless_changes(true);
  // Registry off: the changes only record capacities; registry on: each
  // still re-solves and publishes (3 more sim.flow.resolves), but the
  // solver counts neither, so its count is the same either way.
  EXPECT_EQ(off.solves_before_traffic, 0u);
  EXPECT_EQ(on.solves_before_traffic, 0u);
  EXPECT_EQ(on.solves, off.solves);
  EXPECT_EQ(on.resolves, static_cast<double>(on.solves) + 3.0);
  // The recorded capacities hold when traffic starts.
  EXPECT_DOUBLE_EQ(off.finish_a, 5.0);
  EXPECT_DOUBLE_EQ(off.finish_b, 5.0);
  EXPECT_EQ(on.finish_a, off.finish_a);
  EXPECT_EQ(on.finish_b, off.finish_b);
}

}  // namespace
}  // namespace cci::sim
