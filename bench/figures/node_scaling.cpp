// Extension: node-count scaling of the distributed applications — how the
// paper's 2-node interference picture extends to larger clusters.
//
// This campaign uses a custom evaluator (the runtime apps, not the
// InterferenceLab protocol); its id is part of every cache key, and the
// axes only label/number the points — ranks and app live outside Scenario.
#include <optional>

#include "bench/registry.hpp"
#include "core/fabric_lab.hpp"
#include "runtime/apps.hpp"

namespace cci::bench {
namespace {

struct AppChoice {
  const char* app;   // table cell: "CG" / "GEMM"
  const char* size;  // table cell: "n=32768" / "m=2048" / "m=8192"
};

constexpr int kFabricNodes[] = {256, 1024, 4096};

/// Smallest fabric of each family that carries `nodes` hosts: fat-tree
/// picks the smallest even k with k*(k/2) >= nodes; dragonfly steps
/// through fixed geometries (8x4x8, 16x8x8, 16x16x16).
net::Topology fabric_topology(int kind, int nodes) {
  if (kind == 0) {
    int k = 2;
    while (k * (k / 2) < nodes) k += 2;
    return net::Topology::fat_tree(k);
  }
  if (nodes <= 256) return net::Topology::dragonfly(8, 4, 8);
  if (nodes <= 1024) return net::Topology::dragonfly(16, 8, 8);
  return net::Topology::dragonfly(16, 16, 16);
}

int run(FigureContext& ctx) {
  // Count solver work across the whole sweep so the incremental engine's
  // partial/full re-solve split is visible alongside the scaling numbers.
  obs::Registry::global().set_enabled(true);

  const auto machine = hw::MachineConfig::henri();
  const auto np = net::NetworkParams::ib_edr();
  const auto cfg = runtime::RuntimeConfig::for_machine("henri");

  const std::vector<AppChoice> apps = {
      {"CG", "n=32768"}, {"GEMM", "m=2048"}, {"GEMM", "m=8192"}};

  core::SweepSpec spec { core::Scenario{} };
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<int>(
          "ranks", {2, 4, 8}, [](core::Scenario&, const int&) {},
          [](const int& r) { return std::to_string(r); },
          [](const int& r) { return static_cast<double>(r); })
      .axis<std::size_t>(
          "app", {0, 1, 2}, [](core::Scenario&, const std::size_t&) {},
          [&apps](const std::size_t& i) {
            return std::string(apps[i].app) + " " + apps[i].size;
          },
          [](const std::size_t& i) { return static_cast<double>(i); });

  core::Campaign c("node_scaling", std::move(spec));
  c.column("makespan_ms", 3, core::Campaign::Metric{})
      .column("send_bw_GBps", 2, core::Campaign::Metric{})
      .column("stall_pct", 1, core::Campaign::Metric{})
      .evaluator("node_scaling_apps.v1",
                 [machine, np, cfg](const core::SweepPoint& p) -> std::vector<double> {
                   const int ranks = static_cast<int>(p.numeric[0]);
                   const int app = static_cast<int>(p.numeric[1]);
                   runtime::AppResult r;
                   if (app == 0) {
                     runtime::CgAppOptions cg;
                     cg.n = 32768;
                     cg.iterations = 3;
                     cg.workers = 16;
                     cg.ranks = ranks;
                     r = runtime::run_cg_app(machine, np, cfg, cg);
                   } else {
                     runtime::GemmAppOptions gm;
                     gm.m = app == 1 ? 2048 : 8192;
                     gm.tile = 512;
                     gm.workers = 16;
                     gm.ranks = ranks;
                     r = runtime::run_gemm_app(machine, np, cfg, gm);
                   }
                   return {r.makespan * 1e3, r.sending_bw / 1e9, 100 * r.stall_fraction};
                 });
  core::CampaignRun run = ctx.run(c);

  // Column order differs from the axis order (app, size, ranks), so the
  // table is assembled by hand instead of via CampaignRun::table().
  trace::Table t({"app", "size", "ranks", "makespan_ms", "send_bw_GBps", "stall_pct"});
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const AppChoice& a = apps[static_cast<std::size_t>(run.points[i].numeric[1])];
    t.add_text_row({a.app, a.size, run.points[i].labels[0],
                    trace::fmt(run.values[i][0], 3), trace::fmt(run.values[i][1], 2),
                    trace::fmt(run.values[i][2], 1)});
  }
  t.print(ctx.out());

  // try_value_of: under a warm cache (zero points executed in-process) the
  // solver counters were never registered — report them as absent rather
  // than as a table of fake zeros.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const std::optional<double> resolves = snap.try_value_of("sim.flow.resolves");
  const std::optional<double> partial = snap.try_value_of("sim.flow.resolves_partial");
  const std::optional<double> visits = snap.try_value_of("sim.flow.solver_flow_visits");
  auto cell = [](const std::optional<double>& v, int prec) {
    return v ? trace::fmt(*v, prec) : std::string("n/a");
  };
  ctx.out() << "\nSolver work across the sweep (incremental max-min engine):\n";
  trace::Table s({"re-solves", "full", "partial", "flow visits", "visits/re-solve"});
  s.add_text_row({cell(resolves, 0), cell(snap.try_value_of("sim.flow.resolves_full"), 0),
                  cell(partial, 0), cell(visits, 0),
                  resolves && visits && *resolves > 0
                      ? trace::fmt(*visits / *resolves, 2)
                      : std::string("n/a")});
  s.print(ctx.out());

  ctx.out() << "\nTwo regimes: at m=8192 computation dominates and GEMM strong-scales;\n"
               "at m=2048 the panel broadcasts dominate and adding nodes *hurts* —\n"
               "the communication/computation granularity crossover.  CG scales its\n"
               "GEMV but rides an ever-longer ring of latency-bound block exchanges.\n";

  // ---- scale-out: fabric-coupled topologies through the sharded engine ----
  //
  // The runtime apps stop at 8 ranks; the cross-shard carve is what reaches
  // real cluster sizes.  One ring tenant over every host keeps each router
  // and inter-group link hot, so the 4-shard carve must cut boundary links
  // and exchange proxy capacities at every window barrier — visits/event is
  // the per-shard solver work, windows/event the synchronisation overhead.
  core::SweepSpec fspec { core::Scenario{} };
  fspec.seed_policy(core::SeedPolicy::kFixed)
      .axis<int>(
          "topology", {0, 1}, [](core::Scenario&, const int&) {},
          [](const int& k) { return std::string(k == 0 ? "fat-tree" : "dragonfly"); },
          [](const int& k) { return static_cast<double>(k); })
      .axis<int>(
          "nodes", {0, 1, 2}, [](core::Scenario&, const int&) {},
          [](const int& i) { return std::to_string(kFabricNodes[i]); },
          [](const int& i) { return static_cast<double>(i); });

  core::Campaign fc("fabric_scaling", std::move(fspec));
  fc.column("shards_used", 0, core::Campaign::Metric{})
      .column("cut_links", 0, core::Campaign::Metric{})
      .column("visits_per_event", 3, core::Campaign::Metric{})
      .column("windows_per_event", 5, core::Campaign::Metric{})
      .evaluator("fabric_scaling.v1",
                 [](const core::SweepPoint& p) -> std::vector<double> {
                   const int kind = static_cast<int>(p.numeric[0]);
                   const int nodes =
                       kFabricNodes[static_cast<std::size_t>(p.numeric[1])];
                   core::Scenario s;
                   s.topology = fabric_topology(kind, nodes);
                   core::JobSpec ring;
                   ring.label = "ring";
                   ring.iterations = 1;
                   ring.pattern = core::TrafficPattern::kRing;
                   for (int n = 0; n < nodes; ++n) ring.nodes.push_back(n);
                   s.jobs = {ring};
                   core::FabricLab lab(std::move(s));
                   const core::FabricReport r = lab.run_sharded(4);
                   const double ev =
                       r.events > 0 ? static_cast<double>(r.events) : 1.0;
                   return {static_cast<double>(r.populated_shards),
                           static_cast<double>(r.boundary_links),
                           static_cast<double>(r.solver_flow_visits) / ev,
                           static_cast<double>(r.windows) / ev};
                 });
  core::CampaignRun frun = ctx.run(fc);
  ctx.out() << '\n';
  ctx.print(fc, frun);

  ctx.out() << "\nSolver work per event grows with the coupled component (the ring\n"
               "spans the whole fabric) but each shard only solves its own quarter\n"
               "of it, while windows/event falls ~8x from 256 to 4k nodes — the\n"
               "barriers amortise over ever more per-window work.  These columns\n"
               "count work, not host time: they show the synchronisation cost per\n"
               "event falling, not that four shards run faster than one.\n";
  return 0;
}

const FigureRegistrar reg("node_scaling", "Scaling",
                          "CG and GEMM across node counts (switched fabric)", run);

}  // namespace
}  // namespace cci::bench
