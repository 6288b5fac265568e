#include "runtime/apps.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "kernels/cg.hpp"
#include "net/cluster.hpp"
#include "runtime/distributed.hpp"

namespace cci::runtime {

namespace {

/// Shared experiment scaffolding: P-node cluster, world, one runtime/rank
/// orchestrated by a DistributedRuntime.
struct MultiRankApp {
  MultiRankApp(const hw::MachineConfig& machine, const net::NetworkParams& net,
               const RuntimeConfig& rt_config, int workers, int ranks) {
    cluster = std::make_unique<net::Cluster>(
        net::ClusterSpec{.machine = machine, .network = net, .nodes = ranks});
    std::vector<mpi::RankConfig> rc;
    for (int r = 0; r < ranks; ++r) rc.push_back({r, -1});
    world = std::make_unique<mpi::World>(*cluster, rc);
    RuntimeConfig cfg = rt_config;
    cfg.workers = workers;
    drt = std::make_unique<DistributedRuntime>(*world, cfg);
  }

  Runtime& rt(int r) { return drt->runtime(r); }

  AppResult finish() {
    DistributedRuntime::Report rep = drt->run_to_completion();

    AppResult res;
    res.makespan = rep.makespan;
    for (int r = 0; r < drt->ranks(); ++r) {
      res.sending_bw += world->send_stats(r).sending_bw();
      res.stall_fraction += drt->runtime(r).mem_stall_fraction();
      res.tasks += drt->runtime(r).tasks_completed();
    }
    res.sending_bw /= static_cast<double>(drt->ranks());
    res.stall_fraction /= static_cast<double>(drt->ranks());
    return res;
  }

  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<DistributedRuntime> drt;
};

/// Round-robin NUMA home for task data: first-touch by workers spreads
/// allocations over the nodes (§5.3).
int rr_numa(const hw::MachineConfig& cfg, int i) { return i % cfg.numa_count(); }

}  // namespace

AppResult run_cg_app(const hw::MachineConfig& machine, const net::NetworkParams& net,
                     RuntimeConfig rt_config, const CgAppOptions& options) {
  const int P = std::max(2, options.ranks);
  MultiRankApp app(machine, net, rt_config, options.workers, P);
  const auto n = static_cast<double>(options.n);
  const std::size_t block_bytes = options.n / static_cast<std::size_t>(P) * sizeof(double);
  // At least one chunk per worker, so the GEMV sweep actually occupies all
  // computing cores (as the parallel loop of the real kernel would).
  const int chunks = std::max(options.chunks_per_rank, app.rt(0).worker_count());

  const hw::KernelTraits gemv = kernels::cg_gemv_traits_for(options.n);
  const hw::KernelTraits dot{"cg-dot", 2.0, 16.0, hw::VectorClass::kSse};
  const hw::KernelTraits axpy{"cg-axpy", 2.0, 24.0, hw::VectorClass::kSse};

  // q = A_r p: rows n/P, columns in P blocks; the local block overlaps the
  // ring allgather of p, remote blocks wait for their ring step.
  const double gemv_iters_per_block = (n / P) * (n / P) / chunks;
  auto ring_tag = [&](int it, int step, int sender) {
    return 1000 + (it * (P + 2) + step) * 64 + sender;
  };

  for (int r = 0; r < P; ++r) {
    Runtime& rt = app.rt(r);
    const int right = (r + 1) % P;
    const int left = (r - 1 + P) % P;
    std::vector<Task*> prev_barrier;
    for (int it = 0; it < options.iterations; ++it) {
      std::vector<Task*> gemv_tasks;
      // Local column block: runs as soon as the previous iteration ended.
      for (int c = 0; c < chunks; ++c) {
        Task* t = rt.add_task({"gemv-local", gemv, gemv_iters_per_block}, rr_numa(machine, c));
        for (Task* dep : prev_barrier) Runtime::add_dependency(dep, t);
        gemv_tasks.push_back(t);
      }
      // Ring allgather: P-1 chained steps; each received block unlocks its
      // GEMV chunk tasks while later steps continue — comm/compute overlap.
      Task* prev_send = nullptr;
      Task* prev_recv = nullptr;
      for (int step = 0; step < P - 1; ++step) {
        // Buffer homes follow the first-touch of the p blocks: they rotate
        // across NUMA nodes with the iteration and ring position.
        Task* send = rt.add_send(right, ring_tag(it, step, r),
                                 mpi::MsgView{block_bytes, rr_numa(machine, it + step),
                                              0x100u + static_cast<std::uint64_t>(r)});
        Task* recv = rt.add_recv(left, ring_tag(it, step, left),
                                 mpi::MsgView{block_bytes, rr_numa(machine, it + step + 1),
                                              0x200u + static_cast<std::uint64_t>(r)});
        if (step == 0) {
          for (Task* dep : prev_barrier) {
            Runtime::add_dependency(dep, send);
            Runtime::add_dependency(dep, recv);
          }
        } else {
          Runtime::add_dependency(prev_send, send);
          Runtime::add_dependency(prev_recv, send);  // forward what arrived
          Runtime::add_dependency(prev_recv, recv);
        }
        prev_send = send;
        prev_recv = recv;
        for (int c = 0; c < chunks; ++c) {
          Task* t = rt.add_task({"gemv-remote", gemv, gemv_iters_per_block},
                                rr_numa(machine, c + step));
          Runtime::add_dependency(recv, t);
          gemv_tasks.push_back(t);
        }
      }

      // alpha = rho / (p . q): one reduction over the local rows.
      Task* dots = rt.add_task({"dot", dot, n / P}, rr_numa(machine, it));
      for (Task* t : gemv_tasks) Runtime::add_dependency(t, dots);

      // x += alpha p ; r -= alpha q ; p = r + beta p.
      std::vector<Task*> updates;
      for (int u = 0; u < 3; ++u) {
        Task* t = rt.add_task({"axpy", axpy, n / P}, rr_numa(machine, u));
        Runtime::add_dependency(dots, t);
        updates.push_back(t);
      }
      prev_barrier = updates;
    }
  }
  return app.finish();
}

AppResult run_gemm_app(const hw::MachineConfig& machine, const net::NetworkParams& net,
                       RuntimeConfig rt_config, const GemmAppOptions& options) {
  const int P = std::max(2, options.ranks);
  MultiRankApp app(machine, net, rt_config, options.workers, P);
  const std::size_t m = options.m;
  const std::size_t tile = options.tile;
  const std::size_t panels = m / tile;             // k-panels of B
  const std::size_t rows_per_rank = m / static_cast<std::size_t>(P);
  const std::size_t row_tiles = rows_per_rank / tile;  // C row tiles per rank
  const std::size_t col_tiles = m / tile;              // C column tiles
  const std::size_t panel_bytes = tile * m * sizeof(double);

  const hw::KernelTraits tile_traits = kernels::gemm_tile_traits(tile);

  for (int r = 0; r < P; ++r) {
    Runtime& rt = app.rt(r);
    // C-tile accumulation chains: tile (i,j) across panels must serialize.
    std::vector<Task*> last_writer(row_tiles * col_tiles, nullptr);
    Task* prev_comm = nullptr;  // panels are submitted (and sent) in order
    for (std::size_t k = 0; k < panels; ++k) {
      // B's k-panel lives on the rank owning those rows; the owner sends
      // it to every peer, peers receive it.
      const int owner = static_cast<int>(k * tile / rows_per_rank);
      const int tag = 2000 + static_cast<int>(k) * (P + 1);
      Task* gate = nullptr;  // what the tile tasks of this panel wait on
      if (owner == r) {
        for (int peer = 0; peer < P; ++peer) {
          if (peer == r) continue;
          Task* send = rt.add_send(peer, tag + peer,
                                   mpi::MsgView{panel_bytes,
                                                rr_numa(machine, static_cast<int>(k)),
                                                0x300u + k});
          if (prev_comm != nullptr) Runtime::add_dependency(prev_comm, send);
          prev_comm = send;
        }
      } else {
        Task* recv = rt.add_recv(owner, tag + r,
                                 mpi::MsgView{panel_bytes,
                                              rr_numa(machine, static_cast<int>(k)),
                                              0x400u + k});
        if (prev_comm != nullptr) Runtime::add_dependency(prev_comm, recv);
        prev_comm = recv;
        gate = recv;
      }
      for (std::size_t i = 0; i < row_tiles; ++i)
        for (std::size_t j = 0; j < col_tiles; ++j) {
          Task* t = rt.add_task({"gemm-tile", tile_traits, 1.0},
                                rr_numa(machine, static_cast<int>(i * col_tiles + j)));
          if (gate != nullptr) Runtime::add_dependency(gate, t);
          Task*& prev = last_writer[i * col_tiles + j];
          if (prev != nullptr) Runtime::add_dependency(prev, t);
          prev = t;
        }
    }
  }
  return app.finish();
}

}  // namespace cci::runtime
