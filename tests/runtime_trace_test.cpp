// Runtime execution traces: Gantt records and their invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "kernels/stream.hpp"
#include "runtime/runtime.hpp"

namespace cci::runtime {
namespace {

using net::Cluster;

struct TraceRig {
  TraceRig() : cluster({.nodes = 2}),
               world(cluster, {{0, -1}, {1, -1}}) {}
  Cluster cluster;
  mpi::World world;
};

TEST(ExecutionTrace, RecordsEveryComputeTaskExactlyOnce) {
  TraceRig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  rt.enable_execution_trace(true);
  hw::KernelTraits triad = kernels::triad_traits();
  for (int i = 0; i < 12; ++i) rt.add_task({"t" + std::to_string(i), triad, 1e6}, i % 4);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  ASSERT_EQ(rt.execution_trace().size(), 12u);
  // Each record well-formed; names unique.
  std::vector<std::string> names;
  for (const auto& rec : rt.execution_trace()) {
    EXPECT_LT(rec.start, rec.end);
    EXPECT_GE(rec.core, 0);
    names.push_back(rec.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ExecutionTrace, TasksOnOneCoreNeverOverlap) {
  TraceRig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;  // force serialization
  Runtime rt(rig.world, 0, cfg);
  rt.enable_execution_trace(true);
  hw::KernelTraits triad = kernels::triad_traits();
  for (int i = 0; i < 10; ++i) rt.add_task({"t", triad, 1e6}, 0);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  // Group by core; intervals must be disjoint.
  for (int core : rt.worker_cores()) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& rec : rt.execution_trace())
      if (rec.core == core) spans.emplace_back(rec.start, rec.end);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12);
  }
}

TEST(ExecutionTrace, DisabledByDefault) {
  TraceRig rig;
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(rig.world, 0, cfg);
  rt.add_task({"t", kernels::triad_traits(), 1e6}, 0);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  EXPECT_TRUE(rt.execution_trace().empty());
}

TEST(ExecutionTrace, DependentTasksAreOrderedInTime) {
  TraceRig rig;
  RuntimeConfig cfg;
  cfg.workers = 4;
  Runtime rt(rig.world, 0, cfg);
  rt.enable_execution_trace(true);
  hw::KernelTraits triad = kernels::triad_traits();
  Task* a = rt.add_task({"first", triad, 1e6}, 0);
  Task* b = rt.add_task({"second", triad, 1e6}, 1);
  Runtime::add_dependency(a, b);
  auto& done = rt.run();
  rig.cluster.engine().spawn([](Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  rig.cluster.engine().run();
  double end_first = 0, start_second = 0;
  for (const auto& rec : rt.execution_trace()) {
    if (rec.name == "first") end_first = rec.end;
    if (rec.name == "second") start_second = rec.start;
  }
  EXPECT_GE(start_second, end_first);
}

}  // namespace
}  // namespace cci::runtime
