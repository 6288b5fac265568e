#include "bench/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <system_error>

#include "core/result_io.hpp"
#include "trace/metrics_table.hpp"

#ifdef CCI_SCHED
#include "sched/explorer.hpp"
#endif

namespace cci::bench {

std::string BenchObs::results_path_from_env() {
  if (const char* results = std::getenv("CCI_RESULTS")) return results;
  const char* trace = std::getenv("CCI_TRACE");  // tracing iff non-empty
  return trace != nullptr && trace[0] != '\0' ? std::string(trace) + ".records.json" : "";
}

BenchObs::BenchObs(std::string bench_name)
    : bench_(std::move(bench_name)),
      session_(obs::Session::from_env()),
      results_path_(results_path_from_env()) {
  if (!results_path_.empty()) obs::Registry::global().set_enabled(true);
}

void BenchObs::write_record(const std::vector<std::pair<std::string, double>>& fields) {
  if (results_path_.empty()) return;
  std::ofstream os(results_path_, std::ios::app);
  if (!os) return;
  auto snap = obs::Registry::global().snapshot();
  core::write_bench_json(os, bench_, fields, &snap);
  recorded_ = true;
}

BenchObs::~BenchObs() {
  // CCI_METRICS=1 with no trace file and no results path: print the
  // end-of-run metrics_table so metrics-only runs have an output.
  if (session_.active() && !session_.tracing() && results_path_.empty() &&
      obs::Registry::global().enabled()) {
    std::cout << "\n[cci-obs] end-of-run metrics (" << bench_ << "):\n";
    trace::metrics_table(obs::Registry::global().snapshot()).print(std::cout);
  }
  if (recorded_) std::cerr << "[cci-obs] bench records appended to " << results_path_ << "\n";
}

void FigureContext::print(const trace::Table& table, const std::string& name) {
  table.print(out_);
  if (csv_ != nullptr) {
    *csv_ << "# campaign: " << name << '\n';
    table.print_csv(*csv_);
  }
}

core::CampaignRun FigureContext::run(const core::Campaign& campaign) {
  ran_campaign_ = true;
  core::CampaignRun run = engine_.run(campaign);
  if (timeline_path_.empty() || timeline_failed_) return run;
  if (!timeline_.is_open()) timeline_.open(timeline_path_, std::ios::trunc);
  if (!timeline_) {
    std::cerr << "cci_bench: cannot write --timeline path " << timeline_path_ << '\n';
    timeline_failed_ = true;
  } else if (!run.timelines.empty()) {
    run.write_timeline_csv(timeline_, campaign.name(), !timeline_header_written_);
    timeline_header_written_ = true;
  }
  return run;
}

void FigureContext::print(const core::Campaign& campaign, const core::CampaignRun& run) {
  print(run.table(campaign), campaign.name());
}

FigureRegistry& FigureRegistry::instance() {
  static FigureRegistry reg;
  return reg;
}

void FigureRegistry::add(FigureDef def) { defs_.push_back(std::move(def)); }

const FigureDef* FigureRegistry::find(const std::string& name) const {
  for (const FigureDef& d : defs_)
    if (d.name == name) return &d;
  return nullptr;
}

std::vector<const FigureDef*> FigureRegistry::all() const {
  std::vector<const FigureDef*> out;
  out.reserve(defs_.size());
  for (const FigureDef& d : defs_) out.push_back(&d);
  std::sort(out.begin(), out.end(),
            [](const FigureDef* a, const FigureDef* b) { return a->name < b->name; });
  return out;
}

FigureRegistrar::FigureRegistrar(std::string name, std::string title, std::string what,
                                 FigureFn fn, std::string obs_name) {
  FigureRegistry::instance().add({std::move(name), std::move(title), std::move(what),
                                  std::move(fn), std::move(obs_name)});
}

namespace {

/// Standard banner: which paper element this figure regenerates.
void banner(const std::string& figure, const std::string& what) {
  std::cout << "=== " << figure << " — " << what << " ===\n";
  std::cout << "(simulated cluster; see EXPERIMENTS.md for paper-vs-measured)\n\n";
}

void usage(std::ostream& os) {
  os << "usage: cci_bench <figure> [--jobs N] [--csv out.csv] [--cache dir]\n"
        "                 [--shard i/n] [--seed S]\n"
        "                 [--timeline out.csv] [--timeline-period S]\n"
        "       cci_bench --list\n"
        "\n"
        "  --jobs N     run campaign points on N worker threads (default 1);\n"
        "               any N produces bitwise-identical tables\n"
        "  --csv PATH   append every campaign table to PATH as CSV\n"
        "  --cache DIR  content-addressed result cache: re-runs and other\n"
        "               shards skip already-solved points\n"
        "  --shard i/n  run only points with index % n == i (0-based)\n"
        "  --seed S     override the base seed campaigns mix per-point seeds from\n"
        "  --timeline PATH        write the figure's campaign points as tidy CSV\n"
        "                         (campaign,point,time,series,value) of metrics\n"
        "                         sampled on a simulated-time grid: every engine a\n"
        "                         point builds adds one segment, from t = 0, its\n"
        "                         deltas counted from that engine's construction;\n"
        "                         deterministic for any --jobs/--shard split.  A\n"
        "                         figure that runs no campaign exits 2\n"
        "  --timeline-period SEC  sampling period in simulated seconds\n"
        "                         (default 1e-3; implies nothing without --timeline)\n"
        "  --sched-record PATH    run under a controlled random schedule and save\n"
        "                         the decision trace (CCI_SCHED builds only)\n"
        "  --sched-replay PATH    replay a recorded schedule trace bit-for-bit\n"
        "                         (CCI_SCHED builds only)\n"
        "  --sched-seed S         seed for --sched-record's schedule (default 1)\n";
}

/// True when `path` can be opened for appending.  Probes without writing,
/// and removes the file again when the probe created it.
bool appendable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) return false;
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

bool parse_int(const char* s, long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE;
}

/// A 64-bit seed in [-2^63, 2^64 - 1]; a negative value names its
/// two's-complement bits.  Values beyond are malformed, never clamped.
bool parse_seed(const char* s, std::uint64_t& out) {
  const char* p = s;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '-') {
    long long v = 0;
    if (!parse_int(s, v)) return false;
    out = static_cast<std::uint64_t>(v);
    return true;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE;
}

/// A count in [lo, INT_MAX]: larger values are malformed, never wrapped
/// into an int.
bool parse_count(const char* s, long long lo, int& out) {
  long long v = 0;
  if (!parse_int(s, v) || v < lo || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

/// Schedule-exploration CLI state.  Parsed unconditionally so the flags are
/// recognised (with a clear "rebuild with -DCCI_SCHED=ON" error) even in
/// uninstrumented builds.
struct SchedCli {
  std::string record_path;
  std::string replay_path;
  std::uint64_t seed = 1;
};

/// Parse the campaign flags; returns false (after printing a message) on
/// malformed input, and after printing the usage for --help, which also
/// sets `help`.  Unrecognised arguments are rejected so typos do not
/// silently run a full-size campaign.
bool parse_flags(int argc, char** argv, core::CampaignOptions& options,
                 std::string& csv_path, std::string& timeline_path, SchedCli& sched_cli,
                 bool& help) {
  double timeline_period = 1e-3;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cci_bench: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      const char* v = value("--jobs");
      if (v == nullptr || !parse_count(v, 1, options.jobs)) {
        std::cerr << "cci_bench: --jobs wants a positive integer\n";
        return false;
      }
    } else if (arg == "--csv") {
      const char* v = value("--csv");
      if (v == nullptr) return false;
      csv_path = v;
    } else if (arg == "--cache") {
      const char* v = value("--cache");
      if (v == nullptr) return false;
      options.cache_dir = v;
    } else if (arg == "--shard") {
      const char* v = value("--shard");
      if (v == nullptr) return false;
      const char* slash = std::strchr(v, '/');
      int idx = 0;
      int count = 0;
      if (slash == nullptr || !parse_count(std::string(v, slash).c_str(), 0, idx) ||
          !parse_count(slash + 1, 1, count) || idx >= count) {
        std::cerr << "cci_bench: --shard wants i/n with 0 <= i < n\n";
        return false;
      }
      options.shard_index = idx;
      options.shard_count = count;
    } else if (arg == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr || !parse_seed(v, options.base_seed)) {
        std::cerr << "cci_bench: --seed wants an integer in [-2^63, 2^64-1]\n";
        return false;
      }
      options.override_base_seed = true;
    } else if (arg == "--timeline") {
      const char* v = value("--timeline");
      if (v == nullptr) return false;
      timeline_path = v;
    } else if (arg == "--timeline-period") {
      const char* v = value("--timeline-period");
      char* end = nullptr;
      const double p = v != nullptr ? std::strtod(v, &end) : 0.0;
      if (v == nullptr || end == v || *end != '\0' || !(p > 0.0) || !std::isfinite(p)) {
        std::cerr << "cci_bench: --timeline-period wants a positive, finite number of "
                     "simulated seconds\n";
        return false;
      }
      timeline_period = p;
    } else if (arg == "--sched-record") {
      const char* v = value("--sched-record");
      if (v == nullptr) return false;
      sched_cli.record_path = v;
    } else if (arg == "--sched-replay") {
      const char* v = value("--sched-replay");
      if (v == nullptr) return false;
      sched_cli.replay_path = v;
    } else if (arg == "--sched-seed") {
      const char* v = value("--sched-seed");
      if (v == nullptr || !parse_seed(v, sched_cli.seed)) {
        std::cerr << "cci_bench: --sched-seed wants an integer in [-2^63, 2^64-1]\n";
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      help = true;
      return false;
    } else {
      std::cerr << "cci_bench: unknown argument '" << arg << "'\n";
      usage(std::cerr);
      return false;
    }
  }
  // The period only takes effect alongside --timeline: a period with no
  // sink would silently change campaign execution for nothing.
  if (!timeline_path.empty()) options.timeline_period = timeline_period;
  return true;
}

}  // namespace

int run_cli(const std::string& figure, int argc, char** argv) {
  const FigureDef* def = FigureRegistry::instance().find(figure);
  if (def == nullptr) {
    std::cerr << "cci_bench: unknown figure '" << figure << "' (try --list)\n";
    return 2;
  }
  core::CampaignOptions options;
  std::string csv_path;
  std::string timeline_path;
  SchedCli sched_cli;
  bool help = false;
  if (!parse_flags(argc, argv, options, csv_path, timeline_path, sched_cli, help))
    return help ? 0 : 2;
  if (!sched_cli.record_path.empty() && !sched_cli.replay_path.empty()) {
    std::cerr << "cci_bench: --sched-record and --sched-replay are exclusive\n";
    return 2;
  }
#ifndef CCI_SCHED
  if (!sched_cli.record_path.empty() || !sched_cli.replay_path.empty()) {
    std::cerr << "cci_bench: this binary was built without schedule hooks; "
                 "reconfigure with -DCCI_SCHED=ON to use --sched-record/"
                 "--sched-replay\n";
    return 2;
  }
#endif

  // The --timeline file is truncated rather than appended to, but only once
  // a campaign has run (FigureContext::run): a timeline file is a single
  // dataset with one header, not a log; shard outputs are meant to be
  // concatenated by the caller after stripping the extra headers (or by
  // using one file per shard).
  if (!timeline_path.empty() && !appendable(timeline_path)) {
    std::cerr << "cci_bench: cannot open --timeline path " << timeline_path << '\n';
    return 2;
  }
  // Records are appended as the figure runs: an unwritable path fails now,
  // not silently at the first record.
  if (const std::string records = BenchObs::results_path_from_env();
      !records.empty() && !appendable(records)) {
    std::cerr << "cci_bench: cannot append records to " << records
              << " (CCI_RESULTS, or CCI_TRACE plus .records.json)\n";
    return 2;
  }
  std::ofstream csv_file;
  std::ostream* csv = nullptr;
  if (!csv_path.empty()) {
    csv_file.open(csv_path, std::ios::app);
    if (!csv_file) {
      std::cerr << "cci_bench: cannot open --csv path " << csv_path << '\n';
      return 2;
    }
    csv = &csv_file;
  }

  BenchObs obs(def->obs_name.empty() ? def->name : def->obs_name);
  banner(def->title, def->what);
  core::CampaignEngine engine(options);
  FigureContext ctx(engine, obs, std::cout, csv, timeline_path);
#ifdef CCI_SCHED
  std::unique_ptr<sched::Session> sched_session;
  if (!sched_cli.record_path.empty()) {
    sched::Options so;
    so.mode = sched::Options::Mode::kRandom;
    so.seed = sched_cli.seed;
    sched_session = std::make_unique<sched::Session>(so);
  } else if (!sched_cli.replay_path.empty()) {
    sched::Options so;
    so.mode = sched::Options::Mode::kReplay;
    try {
      so.replay = sched::Trace::load(sched_cli.replay_path);
    } catch (const std::exception& e) {
      std::cerr << "cci_bench: " << e.what() << '\n';
      return 2;
    }
    sched_session = std::make_unique<sched::Session>(so);
  }
#endif
  const int rc = def->fn(ctx);
#ifdef CCI_SCHED
  if (sched_session != nullptr) {
    if (!sched_session->error().empty()) {
      std::cerr << "cci_bench: schedule aborted: " << sched_session->error() << '\n';
      return 3;
    }
    if (!sched_cli.record_path.empty()) {
      try {
        sched_session->trace().save(sched_cli.record_path);
      } catch (const std::exception& e) {
        std::cerr << "cci_bench: " << e.what() << '\n';
        return 2;
      }
      std::cerr << "[sched] recorded " << sched_session->decisions().size()
                << " decisions to " << sched_cli.record_path << '\n';
    }
    sched_session.reset();
  }
#endif

  if (!ctx.ran_campaign()) {
    if (timeline_path.empty()) return rc;
    std::cerr << "cci_bench: " << def->name << " runs no campaign, so --timeline has no "
              << "samples to write; " << timeline_path << " was left as it was\n";
    return 2;
  }
  if (ctx.timeline_failed()) return 2;
  std::cout << "\n[campaign] " << def->name << ": points total=" << engine.points_total()
            << " executed=" << engine.points_executed()
            << " cached=" << engine.points_cached() << " (jobs=" << options.jobs;
  if (options.shard_count > 1)
    std::cout << ", shard " << options.shard_index << "/" << options.shard_count;
  std::cout << ")\n";
  return rc;
}

int main_cli(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string first = argv[1];
  if (first == "--list") {
    for (const FigureDef* d : FigureRegistry::instance().all())
      std::cout << d->name << "\t" << d->title << " — " << d->what << '\n';
    return 0;
  }
  if (first == "--help" || first == "-h") {
    usage(std::cout);
    return 0;
  }
  return run_cli(first, argc - 2, argv + 2);
}

}  // namespace cci::bench
