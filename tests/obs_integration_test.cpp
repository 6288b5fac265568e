// Cross-layer instrumentation, end to end: one small two-rank runtime
// ping-pong must leave spans from at least three layers (sim resource
// activity, MPI message lifecycle, runtime comm/poll) in the global
// tracer, and the registry must hold the headline counters.  The same
// run with observability disabled must record nothing.
#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/rt_pingpong.hpp"
#include "runtime/runtime.hpp"

namespace cci {
namespace {

void run_pingpong() {
  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine("henri");
  cfg.workers = 4;
  runtime::Runtime rt0(world, 0, cfg);
  runtime::Runtime rt1(world, 1, cfg);
  rt0.start_workers_idle();
  rt1.start_workers_idle();
  runtime::RtPingPongOptions opt;
  opt.bytes = 256 * 1024;  // rendezvous path: RTS/CTS handshake + DMA flow
  opt.iterations = 3;
  runtime::RtPingPong pp(rt0, rt1, opt);
  pp.start();
  cluster.engine().run(1.0);
  rt0.shutdown();  // flushes the poll-count integral
  rt1.shutdown();
}

TEST(ObsIntegration, TracingCapturesAtLeastThreeLayers) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  reg.tracer().set_enabled(true);

  run_pingpong();

  const obs::Tracer& tr = reg.tracer();
  EXPECT_GT(tr.span_count_on("sim.res."), 0u) << "no simulated-resource activity spans";
  EXPECT_GT(tr.span_count_on("mpi.rank"), 0u) << "no MPI message lifecycle spans";
  EXPECT_GT(tr.span_count_on("rt.rank"), 0u) << "no runtime spans";

  obs::Snapshot s = reg.snapshot();
  EXPECT_GT(s.value_of("sim.engine.events_dispatched"), 0.0);
  EXPECT_GT(s.value_of("sim.flow.resolves"), 0.0);
  EXPECT_GT(s.value_of("mpi.world.rndv_msgs"), 0.0);
  EXPECT_GT(s.value_of("mpi.world.bytes_sent"), 0.0);
  EXPECT_GT(s.value_of("runtime.worker.polls"), 0.0);

  reg.reset();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);
}

TEST(ObsIntegration, DisabledRunRecordsNothing) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(false);
  reg.tracer().set_enabled(false);

  run_pingpong();

  EXPECT_TRUE(reg.tracer().spans().empty());
  EXPECT_TRUE(reg.tracer().counter_samples().empty());
  obs::Snapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(s.value_of("sim.engine.events_dispatched"), 0.0);
  EXPECT_DOUBLE_EQ(s.value_of("mpi.world.bytes_sent"), 0.0);
  EXPECT_DOUBLE_EQ(s.value_of("runtime.worker.polls"), 0.0);
}

TEST(ObsIntegration, IdenticalRunsProduceIdenticalSnapshots) {
  auto& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  run_pingpong();
  obs::Snapshot first = reg.snapshot();

  reg.reset();
  run_pingpong();
  obs::Snapshot second = reg.snapshot();

  ASSERT_EQ(first.entries.size(), second.entries.size());
  for (std::size_t i = 0; i < first.entries.size(); ++i) {
    EXPECT_EQ(first.entries[i].name, second.entries[i].name);
    if (first.entries[i].name.find("wall_us") != std::string::npos)
      continue;  // solver wall-time is host-clock noise by design
    if (first.entries[i].name.find("sim.pool.frames.") != std::string::npos)
      continue;  // the frame arena is a thread-level cache that deliberately
                 // stays warm across engines, so its allocated/reused split
                 // depends on what already ran in this process.  Engine-owned
                 // pools (activity, process_state, wait_node) are fresh per
                 // run and stay under the exact comparison below.
    EXPECT_DOUBLE_EQ(first.entries[i].value, second.entries[i].value)
        << first.entries[i].name;
    EXPECT_EQ(first.entries[i].count, second.entries[i].count) << first.entries[i].name;
  }

  reg.reset();
  reg.set_enabled(false);
}

}  // namespace
}  // namespace cci
