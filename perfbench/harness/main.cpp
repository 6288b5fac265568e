// cci_perfbench: end-to-end and per-layer host timings of cci-lab.
//
//   cci_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--out DIR] [--revision REV] [--digest HEX]
//
// --trace 0 runs one warm-up batch, then times batches with every
// observability hook off until S seconds have passed, and reports the
// end-to-end metrics (medians over the timed batches).
// --trace 1 runs a warm-up and one untraced batch, the workload's reference
// passes, then
// one traced set-up + batch with the obs registry on and host spans
// recorded, and reports the per-layer metrics plus a self-time table.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a `manifest {...}` line and a `counts {...}` line holding
// the batch's deterministic simulated-work counts.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py --self-test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricDef kPerLayer[] = {
    {"core.campaign.speedup", "ratio"},
    {"core.campaign.point_p50_ms", "ms"},
    {"core.campaign.point_p90_ms", "ms"},
    {"core.campaign.warm_ms", "ms"},
    {"core.campaign.cache_hit_ratio", "ratio"},
    {"core.lab.setup_ms", "ms"},
    {"core.lab.compute_alone_s", "s"},
    {"core.lab.comm_alone_s", "s"},
    {"core.lab.together_s", "s"},
    {"sim.engine.events", "count"},
    {"sim.engine.ns_per_event", "ns"},
    {"sim.maxmin.resolves", "count"},
    {"sim.maxmin.visits_per_event", "count"},
    {"sim.maxmin.solve_share", "ratio"},
    {"sim.shard.windows", "count"},
    {"sim.shard.exchanges", "count"},
    {"sim.shard.windows_per_event", "ratio"},
    {"sim.shard.speedup", "ratio"},
    {"sim.partition.ms", "ms"},
    {"net.topology.build_ms", "ms"},
    {"net.route.ns_per_path", "ns"},
    {"net.fabric.routes", "count"},
    {"net.fabric.reroutes", "count"},
    {"mpi.eager_msgs", "count"},
    {"mpi.rndv_msgs", "count"},
    {"mpi.bytes_sent", "B"},
    {"obs.metrics_overhead", "ratio"},
};

/// Set-up repeats at least kSetupMinReps times and until kSetupSeconds of
/// set-up have run (at most kSetupMaxReps); setup_s is the median, so a
/// millisecond-scale set-up is not at the mercy of one preempted repetition.
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string out = ".bench_build/perfbench";
  std::string revision = "unknown";
  std::string digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cci_perfbench: " << why
            << "\nusage: cci_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--tiny] [--out DIR] [--revision REV] [--digest HEX]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--out") a.out = v;
      else if (k == "--revision") a.revision = v;
      else if (k == "--digest") a.digest = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "unset";
}

std::string manifest(const Args& a, const Options& opt) {
  std::ostringstream m;
  m << "{\"workload\": " << json_string(a.workload) << ", \"seed\": " << a.seed
    << ", \"trace\": " << a.trace << ", \"seconds\": " << json_number(a.seconds)
    << ", \"tiny\": " << (a.tiny ? "true" : "false")
    << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"jobs\": " << opt.workers
    << ", \"shards\": " << opt.workers << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"revision\": " << json_string(a.revision)
    << ", \"source_digest\": " << json_string(a.digest)
    << ", \"obs_compiled_in\": " << (CCI_OBS_COMPILED_IN ? "true" : "false");
#ifdef CCI_SCHED
  m << ", \"sched_hooks\": true";
#else
  m << ", \"sched_hooks\": false";
#endif
  m << ", \"env\": {";
  const char* vars[] = {"CCI_SIM_POOLS", "CCI_SIM_INCREMENTAL", "CCI_SIM_SHARDS",
                        "CCI_FAULT_SEED", "CCI_OBS_DISABLE"};
  for (std::size_t i = 0; i < std::size(vars); ++i)
    m << (i ? ", " : "") << json_string(vars[i]) << ": " << json_string(env_or_unset(vars[i]));
  m << "}}";
  return m.str();
}

std::string values_json(const Values& v) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, x] : v) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_number(x);
    first = false;
  }
  os << '}';
  return os.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void print_self_time(std::ostream& os, const std::vector<SelfTimeRow>& rows, double wall) {
  os << "self time over the traced set-up + batch (" << json_number(wall) << " s wall):\n";
  double sum = 0.0;
  for (const SelfTimeRow& r : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %10.4f s %6.1f%% %8llu calls\n", r.name.c_str(),
                  r.self_s, wall > 0.0 ? 100.0 * r.self_s / wall : 0.0,
                  static_cast<unsigned long long>(r.calls));
    os << line;
    sum += r.self_s;
  }
  char line[120];
  std::snprintf(line, sizeof line, "  %-34s %10.4f s (rows sum to the traced wall)\n", "total",
                sum);
  os << line;
}

/// What one run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Values metrics;
  Batch reference;           ///< the batch later batches must count like
  std::ostringstream report; ///< extra JSON members for the result file

  /// Fold a batch in; a deterministic count that differs from `like`, a
  /// batch of the same seed, is a failure, not noise.
  void account(const Batch& b, const Batch* like) {
    attempted += b.attempted;
    failed += b.failed;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    if (like == nullptr) return;
    for (const auto& [k, v] : like->counts) {
      auto it = b.counts.find(k);
      const double got = it == b.counts.end() ? -1.0 : it->second;
      if (got != v) {
        ++failed;
        errors.push_back("deterministic count " + k + " changed between batches of one seed: " +
                         json_number(v) + " vs " + json_number(got));
      }
    }
  }
};

/// --trace 0: set-up repetitions, a warm-up batch, then timed batches.
void measure_end_to_end(Workload& w, double seconds, Outcome& out) {
  Recorder off;
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kSetupMinReps ||
         (setup_total < kSetupSeconds && setups.size() < kSetupMaxReps)) {
    const auto t0 = Clock::now();
    w.setup(off);
    setups.push_back(seconds_since(t0));
    setup_total += setups.back();
  }
  // The first batch warms allocator pools and caches: checked, not timed.
  // Peak RSS is read after it, over a fixed amount of work: later batches
  // only add allocator fragmentation, and how many run depends on speed.
  out.reference = w.run_batch(off);
  out.account(out.reference, nullptr);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  std::vector<double> walls;
  std::vector<double> cpus;
  const auto start = Clock::now();
  do {
    const Batch b = w.run_batch(off);
    out.account(b, &out.reference);
    walls.push_back(b.wall_s);
    cpus.push_back(b.cpu_s);
  } while (seconds_since(start) < seconds);
  out.metrics["wall_s"] = median(walls);
  out.metrics["cpu_s"] = median(cpus);
  out.metrics["setup_s"] = median(setups);
  std::printf("setup_s over %zu repetitions: min %.4f median %.4f max %.4f\n", setups.size(),
              *std::min_element(setups.begin(), setups.end()), median(setups),
              *std::max_element(setups.begin(), setups.end()));
  std::printf("batches %zu, wall_s/cpu_s per batch:", walls.size());
  for (std::size_t i = 0; i < walls.size(); ++i) std::printf(" %.3f/%.3f", walls[i], cpus[i]);
  std::printf("\n");
}

/// --trace 1: warm-up and untraced batches, reference passes, then one
/// traced set-up + batch with the obs registry on and spans recorded.
void measure_layers(Workload& w, Outcome& out) {
  Recorder off;
  w.setup(off);
  const Batch warm_up = w.run_batch(off);
  out.account(warm_up, nullptr);
  out.reference = w.run_batch(off);
  out.account(out.reference, &warm_up);
  w.reference_metrics(out.reference, out.metrics);

  cci::obs::Registry& reg = cci::obs::Registry::process();
  reg.reset();
  reg.set_enabled(true);
  Recorder rec;
  rec.start();
  w.setup(rec);
  const std::int64_t batch_begin = rec.now_ns();
  const Batch traced = w.run_batch(rec);
  const std::int64_t end = rec.now_ns();
  rec.stop();
  reg.set_enabled(false);
  out.account(traced, &out.reference);

  const std::vector<Span> spans = rec.spans();
  std::vector<Span> setup_spans;
  std::vector<Span> batch_spans;
  for (const Span& s : spans) (s.start_ns < batch_begin ? setup_spans : batch_spans).push_back(s);
  w.traced_metrics(setup_spans, batch_spans, traced, out.metrics);

  const cci::obs::Snapshot snap = reg.snapshot();
  const double events = snap.value_of("sim.engine.events_dispatched");
  const double per_event = events > 0.0 ? 1.0 / events : 0.0;
  const cci::obs::Snapshot::Entry* solve = snap.find("sim.flow.solve_wall_us");
  Values& m = out.metrics;
  m["sim.engine.events"] = events;
  m["sim.engine.ns_per_event"] = out.reference.wall_s * 1e9 * per_event;
  m["sim.maxmin.resolves"] = snap.value_of("sim.flow.resolves");
  m["sim.maxmin.visits_per_event"] = snap.value_of("sim.flow.solver_flow_visits") * per_event;
  m["sim.maxmin.solve_share"] =
      solve != nullptr && traced.wall_s > 0.0 ? solve->sum * 1e-6 / traced.wall_s : 0.0;
  m["sim.shard.windows"] = snap.value_of("sim.shard.windows");
  m["sim.shard.exchanges"] = snap.value_of("sim.shard.exchanges");
  m["sim.shard.windows_per_event"] = snap.value_of("sim.shard.windows") * per_event;
  m["mpi.eager_msgs"] = snap.value_of("mpi.world.eager_msgs");
  m["mpi.rndv_msgs"] = snap.value_of("mpi.world.rndv_msgs");
  m["mpi.bytes_sent"] = snap.value_of("mpi.world.bytes_sent");
  m["obs.metrics_overhead"] =
      out.reference.wall_s > 0.0 ? traced.wall_s / out.reference.wall_s : 0.0;

  const auto counted = out.reference.counts.find("sim.engine.events");
  if (counted != out.reference.counts.end() && counted->second != events) {
    ++out.failed;
    out.errors.push_back("registry events " + json_number(events) +
                         " differ from the engines' own count " + json_number(counted->second));
  }

  const std::vector<SelfTimeRow> rows = self_time_table(spans, 0, end);
  print_self_time(std::cout, rows, static_cast<double>(end) * 1e-9);
  out.report << ", \"traced_wall_s\": " << json_number(static_cast<double>(end) * 1e-9)
             << ", \"self_time\": [";
  for (std::size_t i = 0; i < rows.size(); ++i)
    out.report << (i ? ", " : "") << "{\"name\": " << json_string(rows[i].name)
               << ", \"self_s\": " << json_number(rows[i].self_s)
               << ", \"calls\": " << rows[i].calls << '}';
  out.report << "], \"spans\": ";
  write_spans_json(out.report, spans);
}

int run(const Args& a) {
  Options opt;
  opt.seed = a.seed;
  opt.tiny = a.tiny;
  opt.workers = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  opt.scratch = (std::filesystem::path(a.out) / "scratch").string();
  std::filesystem::create_directories(opt.scratch);
  std::unique_ptr<Workload> w = make_workload(a.workload, opt);
  if (!w) usage("unknown workload " + a.workload);

  const std::string man = manifest(a, opt);
  std::cout << "manifest " << man << std::endl;

  Outcome out;
  if (a.trace == 0)
    measure_end_to_end(*w, a.seconds, out);
  else
    measure_layers(*w, out);
  std::fflush(stdout);

  const std::vector<MetricDef> defs =
      a.trace == 0 ? std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd))
                   : std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer));
  for (const MetricDef& m : defs)
    out.metrics.try_emplace(m.name, 0.0);  // a layer this workload does not use reads 0

  const std::uint64_t failed = std::min(out.failed, out.attempted);
  std::cout << "summary " << out.reference.summary << '\n';
  std::cout << "error_rate "
            << json_number(out.attempted > 0 ? static_cast<double>(failed) /
                                                   static_cast<double>(out.attempted)
                                             : 1.0)
            << " (" << failed << " of " << out.attempted << " operations failed)\n";
  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i)
    std::cout << "error " << out.errors[i] << '\n';
  if (out.errors.size() > 20) std::cout << "error ... " << out.errors.size() - 20 << " more\n";
  std::cout << "counts " << values_json(out.reference.counts) << '\n';

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 && out.attempted > 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i)
    result << (i ? ", " : "") << json_string(defs[i].name)
           << ": {\"value\": " << json_number(out.metrics.at(defs[i].name))
           << ", \"unit\": " << json_string(defs[i].unit) << '}';
  result << "}}";

  const std::filesystem::path file =
      std::filesystem::path(a.out) / (a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                                      std::to_string(a.trace) + (a.tiny ? "-tiny" : "") + ".json");
  std::ofstream(file) << "{\"manifest\": " << man << ", \"result\": " << result.str()
                      << ", \"counts\": " << values_json(out.reference.counts)
                      << out.report.str() << "}\n";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "cci_perfbench: " << e.what() << '\n';
    return 1;
  }
}
