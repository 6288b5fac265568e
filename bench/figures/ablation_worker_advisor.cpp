// Ablation: automatic worker-count selection (the paper's future-work
// proposal) on CG and GEMM.
#include "bench/registry.hpp"
#include "runtime/advisor.hpp"
#include "runtime/apps.hpp"

namespace cci::bench {
namespace {

int run(FigureContext& ctx) {
  auto machine = hw::MachineConfig::henri();
  auto np = net::NetworkParams::ib_edr();
  auto rt_cfg = runtime::RuntimeConfig::for_machine("henri");

  auto report_for = [&](const char* app, const std::function<double(int)>& makespan) {
    auto report = runtime::select_worker_count(makespan, 34);
    trace::Table t({"workers_tried", "makespan_ms"});
    for (const auto& s : report.samples)
      t.add_row({static_cast<double>(s.workers), s.makespan * 1e3});
    ctx.out() << "--- " << app << " ---\n";
    ctx.print(t, app);
    ctx.out() << "chosen: " << report.best_workers << " workers ("
              << trace::format_time(report.best_makespan) << ")\n\n";
  };

  report_for("CG n=32768", [&](int workers) {
    runtime::CgAppOptions opt;
    opt.n = 32768;
    opt.iterations = 3;
    opt.workers = workers;
    return runtime::run_cg_app(machine, np, rt_cfg, opt).makespan;
  });
  report_for("GEMM m=4096", [&](int workers) {
    runtime::GemmAppOptions opt;
    opt.m = 4096;
    opt.tile = 512;
    opt.workers = workers;
    return runtime::run_gemm_app(machine, np, rt_cfg, opt).makespan;
  });

  ctx.out() << "CG saturates the memory bus early: extra workers past the knee add\n"
               "contention, not speed.  GEMM keeps scaling to the full machine.\n";
  return 0;
}

const FigureRegistrar reg("ablation_worker_advisor", "Ablation",
                          "automatic worker-count selection (future work of the paper)", run);

}  // namespace
}  // namespace cci::bench
