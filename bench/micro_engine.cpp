// Engine microbenchmarks (google-benchmark): solver and simulation
// throughput — not a paper figure, but the cost model of every experiment.
#include <benchmark/benchmark.h>

#include <vector>

#include "mpi/pingpong.hpp"
#include "net/cluster.hpp"
#include "sim/flow_model.hpp"
#include "sim/maxmin.hpp"
#include "sim/rng.hpp"

using namespace cci;

namespace {

void BM_MaxMinSolve(benchmark::State& state) {
  sim::Rng rng(7);
  sim::MaxMinProblem p;
  const auto n_res = static_cast<std::size_t>(state.range(0));
  const auto n_flows = static_cast<std::size_t>(state.range(1));
  for (std::size_t r = 0; r < n_res; ++r) p.capacity.push_back(rng.uniform(1.0, 100.0));
  for (std::size_t f = 0; f < n_flows; ++f) {
    sim::MaxMinFlow flow;
    flow.weight = rng.uniform(0.5, 2.0);
    for (int h = 0; h < 3; ++h)
      flow.entries.push_back({rng.below(n_res), rng.uniform(0.5, 2.0)});
    p.flows.push_back(std::move(flow));
  }
  for (auto _ : state) {
    auto sol = sim::solve_max_min(p);
    benchmark::DoNotOptimize(sol.rate.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_flows));
}
BENCHMARK(BM_MaxMinSolve)->Args({8, 16})->Args({32, 64})->Args({128, 256});

struct ChurnStats {
  std::uint64_t flow_visits = 0;
  std::uint64_t solves = 0;
  std::uint64_t resource_visits = 0;
  std::uint64_t components_solved = 0;
  std::uint64_t components_filled = 0;
  std::uint64_t replay_resource_visits = 0;
};

/// Clustered flow churn through the full FlowModel: staggered activities over
/// disjoint resource groups, so every completion dirties one component only.
ChurnStats run_flow_churn(std::size_t clusters, std::size_t flows_per_cluster,
                          bool incremental) {
  constexpr std::size_t kResPerCluster = 3;
  sim::Rng rng(11);
  sim::Engine engine;
  sim::FlowModel model(engine);
  model.set_incremental(incremental);
  std::vector<sim::Resource*> res;
  for (std::size_t r = 0; r < clusters * kResPerCluster; ++r)
    res.push_back(model.add_resource("churn" + std::to_string(r), rng.uniform(5.0, 50.0)));
  std::vector<sim::ActivityPtr> acts;
  acts.reserve(clusters * flows_per_cluster);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t f = 0; f < flows_per_cluster; ++f) {
      sim::ActivitySpec spec;
      spec.work = rng.uniform(10.0, 100.0);
      spec.weight = rng.uniform(0.5, 2.0);
      std::size_t hops = 1 + rng.below(2);
      for (std::size_t h = 0; h < hops; ++h)
        spec.demands.push_back({res[c * kResPerCluster + rng.below(kResPerCluster)],
                                rng.uniform(0.2, 2.0)});
      engine.call_at(rng.uniform(0.0, 2.0),
                     [&model, &acts, spec]() mutable { acts.push_back(model.start(spec)); });
    }
  }
  engine.run();
  return {model.solver().stats().flow_visits, model.solver().stats().solves};
}

void BM_FlowModelChurn(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const auto flows_per_cluster = static_cast<std::size_t>(state.range(1));
  // Untimed from-scratch reference run; deterministic, so once is enough.
  const ChurnStats full = run_flow_churn(clusters, flows_per_cluster, false);
  ChurnStats inc;
  for (auto _ : state) {
    inc = run_flow_churn(clusters, flows_per_cluster, true);
    benchmark::DoNotOptimize(inc.flow_visits);
  }
  // Each re-solve corresponds to one simulated change-point event.  These
  // counters are deterministic (fixed seed): the CI perf guard compares
  // visits_per_event against the checked-in baseline.
  const double inc_vpe =
      static_cast<double>(inc.flow_visits) / static_cast<double>(inc.solves);
  const double full_vpe =
      static_cast<double>(full.flow_visits) / static_cast<double>(full.solves);
  state.counters["flows"] = static_cast<double>(clusters * flows_per_cluster);
  state.counters["visits_per_event"] = inc_vpe;
  state.counters["visit_reduction"] = full_vpe / inc_vpe;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inc.solves));
}
BENCHMARK(BM_FlowModelChurn)->Args({8, 16})->Args({32, 32})->Args({64, 16});

/// Random all-to-all DMA churn over a 64-node fat_tree(16) fabric: every
/// flow crosses a 7-resource path (ports, leaf/spine crossbars, up/down
/// links), so components couple through the shared spines.  Proves the
/// incremental solver's partial re-solves scale past the single-crossbar
/// fabric the churn bench above models.
ChurnStats run_fat_tree_fanout(bool incremental) {
  constexpr int kNodes = 64;
  net::ClusterSpec cspec;
  cspec.topology = net::Topology::fat_tree(16, /*oversubscription=*/0.5);
  cspec.nodes = kNodes;
  cspec.seed = 17;
  net::Cluster cluster(cspec);
  cluster.model().set_incremental(incremental);
  // Events are the solves traffic causes; whatever the build solved (its
  // machines' clocks) is not one.
  const sim::MaxMinSolver::Stats built = cluster.model().solver().stats();
  sim::Rng rng(13);
  std::vector<sim::ActivityPtr> acts;
  acts.reserve(256);
  for (int f = 0; f < 256; ++f) {
    const int src = static_cast<int>(rng.below(kNodes));
    int dst = static_cast<int>(rng.below(kNodes));
    if (dst == src) dst = (dst + 1) % kNodes;
    sim::ActivitySpec spec;
    spec.work = rng.uniform(1e6, 64e6);  // bytes across GB/s-scale links
    for (sim::Resource* r : cluster.fabric_path(src, dst)) spec.demands.push_back({r, 1.0});
    cluster.engine().call_at(
        rng.uniform(0.0, 1e-3),
        [&cluster, &acts, spec]() mutable { acts.push_back(cluster.model().start(spec)); });
  }
  cluster.engine().run();
  const sim::MaxMinSolver::Stats& st = cluster.model().solver().stats();
  return {st.flow_visits,       st.solves - built.solves, st.resource_visits,
          st.components_solved, st.components_filled,     st.replay_resource_visits};
}

void BM_FatTreeFanout(benchmark::State& state) {
  const ChurnStats full = run_fat_tree_fanout(false);
  ChurnStats inc{};
  for (auto _ : state) {
    inc = run_fat_tree_fanout(true);
    benchmark::DoNotOptimize(inc.flow_visits);
  }
  const double inc_vpe =
      static_cast<double>(inc.flow_visits) / static_cast<double>(inc.solves);
  const double full_vpe =
      static_cast<double>(full.flow_visits) / static_cast<double>(full.solves);
  state.counters["visits_per_event"] = inc_vpe;
  state.counters["visit_reduction"] = full_vpe / inc_vpe;
  // Resources scanned by the filling rounds per event: only those an
  // unfixed flow still loads.  Deterministic, CI-gated like the flow visits.
  state.counters["res_visits_per_event"] =
      static_cast<double>(inc.resource_visits) / static_cast<double>(inc.solves);
  // The work the solver actually did: the share of component solves that
  // ran a full filling (the rest replayed their trace), and the resources
  // replays recomputed per event.  Deterministic, CI-gated at tolerance 0.
  state.counters["filled_share"] =
      static_cast<double>(inc.components_filled) / static_cast<double>(inc.components_solved);
  state.counters["replay_res_per_event"] =
      static_cast<double>(inc.replay_resource_visits) / static_cast<double>(inc.solves);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inc.solves));
}
BENCHMARK(BM_FatTreeFanout);

void BM_EngineTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i)
      engine.call_at(static_cast<double>(i) * 1e-6, [] {});
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EngineTimerChurn);

void BM_SimulatedPingPong(benchmark::State& state) {
  // How many simulated 4-byte ping-pong iterations per wall second.
  for (auto _ : state) {
    net::Cluster cluster(net::ClusterSpec{});
    mpi::World world(cluster, {{0, -1}, {1, -1}});
    mpi::PingPongOptions opt;
    opt.bytes = 4;
    opt.iterations = 100;
    mpi::PingPong pp(world, 0, 1, opt);
    pp.start();
    cluster.engine().run();
    benchmark::DoNotOptimize(pp.latencies().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_SimulatedPingPong);

}  // namespace

BENCHMARK_MAIN();
