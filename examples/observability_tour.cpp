// Observability tour: the cross-layer metrics registry and span tracer
// (src/obs), read back as memory-controller counters (the pmu-tools
// substitute) and, from the governor's transition trace, frequency
// residency — the instruments behind Fig. 2/3/10.
//
// The tour enables the global obs::Registry up front, runs a small
// task-DAG workload, dumps every metric the layers recorded, and writes
// a Chrome trace file (open it at https://ui.perfetto.dev).
#include <iostream>
#include <map>

#include "kernels/stream.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "trace/freq_trace.hpp"
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
  hw::Machine& node0 = cluster.machine(0);
  trace::FreqTrace freqs(node0);  // every governor transition, timestamped

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
  double finished = 0.0;
  cluster.engine().spawn([](runtime::Runtime& r, sim::OneShotEvent& d,
                            double& at) -> sim::Coro {
    co_await d;
    at = r.engine().now();
    r.shutdown();
  }(rt, done, finished));
  cluster.engine().run();

  std::cout << "Task execution trace (Gantt rows):\n";
  trace::Table gantt({"task", "core", "data_numa", "start_ms", "end_ms"});
  for (const auto& rec : rt.execution_trace())
    gantt.add_text_row({rec.name, std::to_string(rec.core), std::to_string(rec.data_numa),
                        trace::fmt(rec.start * 1e3, 3),
                        trace::fmt(rec.end * 1e3, 3)});
  gantt.print(std::cout);

  // The flow model integrates every resource's load exactly between
  // change points, so the registry already holds each controller's bytes
  // moved (work_units) and its peak utilization and pressure (gauge max).
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto peak = [&snap](const std::string& name) {
    const obs::Snapshot::Entry* e = snap.find(name);
    return e != nullptr ? e->max : 0.0;
  };
  std::cout << "\nMemory-controller counters (node 0, until the DAG finished at "
            << trace::format_time(finished) << "):\n";
  trace::Table ctrl({"numa", "mean_GBps", "peak_util", "peak_pressure", "GB_moved"});
  for (int n = 0; n < node0.config().numa_count(); ++n) {
    const std::string res = "sim.resource." + node0.mem_ctrl(n)->name();
    const double bytes = snap.value_of(res + ".work_units");
    ctrl.add_text_row({std::to_string(n), trace::fmt(bytes / finished / 1e9, 2),
                       trace::fmt(peak(res + ".utilization"), 2),
                       trace::fmt(peak(res + ".pressure"), 2), trace::fmt(bytes / 1e9, 3)});
  }
  ctrl.print(std::cout);

  // Residency: the time between consecutive core-0 transitions, up to the
  // DAG's finish.  Transitions at one instant (policy re-applied at start)
  // leave states held for no time; those are not listed.
  std::cout << "\nFrequency residency of core 0 (seconds at each frequency):\n";
  std::map<double, double> residency;
  const trace::FreqTrace::Event* last = nullptr;
  for (const trace::FreqTrace::Event& e : freqs.events()) {
    if (e.core != 0 || e.time > finished) continue;
    if (last != nullptr) residency[last->freq_hz] += e.time - last->time;
    last = &e;
  }
  if (last != nullptr) residency[last->freq_hz] += finished - last->time;
  for (const auto& [freq, seconds] : residency)
    if (seconds > 0.0)
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
