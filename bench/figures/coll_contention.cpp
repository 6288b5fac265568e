// Extension: collective operations under memory contention.
//
// The paper restricts itself to point-to-point ping-pongs (§2.1) and notes
// that collectives "would be beyond the scope of this article".  The suite
// supports them; this bench shows the same contention mechanisms acting on
// broadcast / allgather / allreduce across 4 nodes.
#include <memory>

#include "bench/registry.hpp"
#include "core/compute_team.hpp"
#include "kernels/stream.hpp"
#include "mpi/collectives.hpp"

namespace cci::bench {
namespace {

double collective_time(const char* which, int computing_cores, std::size_t bytes) {
  const int nodes = 4;
  net::Cluster cluster({.nodes = nodes});
  std::vector<mpi::RankConfig> rc;
  for (int n = 0; n < nodes; ++n) rc.push_back({n, -1});
  mpi::World world(cluster, rc);

  // Background STREAM teams on every node.
  std::vector<std::unique_ptr<core::ComputeTeam>> teams;
  if (computing_cores > 0) {
    for (int n = 0; n < nodes; ++n) {
      core::ComputeTeam::Options opt;
      for (int c = 0; c < computing_cores; ++c) opt.cores.push_back(c);
      opt.data_numa = 0;
      opt.kernel = kernels::triad_traits();
      opt.iters_per_pass = 0.5e9;  // long enough to cover the collective
      opt.repetitions = 1;
      teams.push_back(std::make_unique<core::ComputeTeam>(cluster.machine(n), opt,
                                                          cluster.rng()));
      teams.back()->start();
    }
  }

  mpi::Coll coll(world, 70000);
  std::vector<std::unique_ptr<sim::OneShotEvent>> done;
  sim::Time t0 = cluster.engine().now();
  for (int r = 0; r < nodes; ++r) {
    done.push_back(std::make_unique<sim::OneShotEvent>(cluster.engine()));
    std::string op = which;
    if (op == "bcast") {
      cluster.engine().spawn(coll.bcast(r, 0, mpi::MsgView{bytes, 0, 0}, done.back().get()));
    } else if (op == "allgather") {
      cluster.engine().spawn(coll.allgather(r, mpi::MsgView{bytes, 0, 0}, done.back().get()));
    } else {
      cluster.engine().spawn(coll.allreduce(r, mpi::MsgView{bytes, 0, 0}, done.back().get()));
    }
  }
  // Run until the collective completed on all ranks (compute may continue).
  sim::Time finished = -1.0;
  cluster.engine().spawn([](net::Cluster& c, std::vector<std::unique_ptr<sim::OneShotEvent>>& d,
                            sim::Time& out) -> sim::Coro {
    for (auto& e : d) co_await e->wait();
    out = c.engine().now();
  }(cluster, done, finished));
  cluster.engine().run();
  return finished - t0;
}

int run(FigureContext& ctx) {
  trace::Table t({"collective", "bytes", "quiet_ms", "with_16_cores_ms", "slowdown"});
  for (const char* op : {"bcast", "allgather", "allreduce"}) {
    for (std::size_t bytes : {std::size_t{64} * 1024, std::size_t{8} << 20}) {
      double quiet = collective_time(op, 0, bytes);
      double loud = collective_time(op, 16, bytes);
      t.add_text_row({op, std::to_string(bytes), trace::fmt(quiet * 1e3, 3),
                      trace::fmt(loud * 1e3, 3),
                      trace::fmt(loud / quiet, 2)});
    }
  }
  ctx.print(t, "coll_contention");
  ctx.out() << "\nEvery step of a collective is a point-to-point transfer, so the\n"
               "paper's contention findings compound along the algorithm's critical\n"
               "path (log P rounds for bcast/allreduce, P-1 for the ring).\n";
  return 0;
}

const FigureRegistrar reg("coll_contention", "Collectives",
                          "bcast/allgather/allreduce under memory contention (4 nodes)", run);

}  // namespace
}  // namespace cci::bench
