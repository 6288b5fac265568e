// Observability tour: the cross-layer metrics registry and span tracer
// (src/obs), plus the hardware counters (the pmu-tools substitute) and
// frequency residency — the instruments behind Fig. 2/3/10.
//
// The tour enables the global obs::Registry up front, runs a small
// task-DAG workload, dumps every metric the layers recorded, and writes
// a Chrome trace file (open it at https://ui.perfetto.dev).
#include <iostream>

#include "hw/counters.hpp"
#include "kernels/stream.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "trace/metrics_table.hpp"
#include "trace/table.hpp"

int main() {
  using namespace cci;
  // Turn on metrics + tracing before any instrumented object is built, so
  // constructors see the enabled registry and cache live handles.
  obs::Registry::global().set_enabled(true);
  obs::Registry::global().tracer().set_enabled(true);

  net::Cluster cluster(net::ClusterSpec{});
  mpi::World world(cluster, {{0, -1}, {1, -1}});

  hw::CounterSampler counters(cluster.machine(0), 0.5e-3);
  counters.start();

  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine("henri");
  cfg.workers = 8;
  runtime::Runtime rt(world, 0, cfg);
  rt.enable_execution_trace(true);
  hw::KernelTraits triad = kernels::triad_traits();
  // A small diamond DAG: fan-out of STREAM chunks, then a join.
  runtime::Task* head = rt.add_task({"seed", triad, 5e6}, 0);
  std::vector<runtime::Task*> mids;
  for (int i = 0; i < 8; ++i) {
    runtime::Task* m = rt.add_task({"chunk" + std::to_string(i), triad, 2e7}, i % 4);
    runtime::Runtime::add_dependency(head, m);
    mids.push_back(m);
  }
  runtime::Task* tail = rt.add_task({"join", triad, 5e6}, 0);
  for (auto* m : mids) runtime::Runtime::add_dependency(m, tail);

  auto& done = rt.run();
  cluster.engine().spawn([](runtime::Runtime& r, sim::OneShotEvent& d,
                            hw::CounterSampler& c) -> sim::Coro {
    co_await d;
    r.shutdown();
    c.stop();
  }(rt, done, counters));
  cluster.engine().run();

  std::cout << "Task execution trace (Gantt rows):\n";
  trace::Table gantt({"task", "core", "data_numa", "start_ms", "end_ms"});
  for (const auto& rec : rt.execution_trace())
    gantt.add_text_row({rec.name, std::to_string(rec.core), std::to_string(rec.data_numa),
                        trace::fmt(rec.start * 1e3, 3),
                        trace::fmt(rec.end * 1e3, 3)});
  gantt.print(std::cout);

  std::cout << "\nMemory-controller counters (node 0):\n";
  trace::Table ctrl({"numa", "mean_util", "peak_pressure", "GB_moved"});
  for (int n = 0; n < 4; ++n) {
    auto s = counters.mem_ctrl_stats(n);
    ctrl.add_text_row({std::to_string(n), trace::fmt(s.mean_utilization, 2),
                       trace::fmt(s.peak_pressure, 2),
                       trace::fmt(s.bytes_transferred / 1e9, 3)});
  }
  ctrl.print(std::cout);

  std::cout << "\nFrequency residency of core 0 (seconds at each frequency):\n";
  for (auto& [freq, seconds] : counters.freq_residency(0))
    std::cout << "  " << freq / 1e9 << " GHz : " << trace::format_time(seconds) << "\n";

  // Everything above was also captured by the cross-layer registry: dump
  // it (name-sorted, deterministic) and export the span timeline.
  std::cout << "\nCross-layer metrics registry (obs::Registry snapshot):\n";
  trace::metrics_table(obs::Registry::global().snapshot()).print(std::cout);

  const std::string trace_path = "observability_tour.trace.json";
  obs::write_chrome_trace_file(trace_path, obs::Registry::global());
  const auto& tracer = obs::Registry::global().tracer();
  std::cout << "\nChrome trace: " << tracer.spans().size() << " spans on "
            << tracer.track_names().size() << " tracks -> " << trace_path
            << " (load in https://ui.perfetto.dev)\n";
  return 0;
}
