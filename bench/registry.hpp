// Figure registry for the cci_bench multi-tool.
//
// Each paper figure, ablation and extension registers one FigureDef: a
// name, banner metadata, and a run function.  One binary (`cci_bench
// <figure> [--jobs N] [--csv out.csv] [--cache dir] [--shard i/n]
// [--seed S]`) drives them all.  Figures written against the campaign API
// get parallelism, caching, sharding and --timeline from the engine;
// hand-loop figures print their tables through the same context and get
// --csv.
#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "obs/session.hpp"
#include "trace/table.hpp"

namespace cci::bench {

/// Per-bench observability hookup, driven entirely by the environment:
///   CCI_TRACE=<path>    Chrome trace (written by the Session destructor)
///                       plus metrics; records land in "<path>.records.json"
///                       unless CCI_RESULTS overrides them.
///   CCI_METRICS=1       metrics only: the end-of-run metrics_table is
///                       printed on exit (no trace file needed).
///   CCI_RESULTS=<path>  append one JSON record per write_record() call.
/// With none of the variables set, everything is a no-op.
class BenchObs {
 public:
  explicit BenchObs(std::string bench_name);
  ~BenchObs();

  /// Where write_record() appends: CCI_RESULTS, else
  /// "<CCI_TRACE>.records.json" when tracing, else "" (no records).
  [[nodiscard]] static std::string results_path_from_env();

  /// Append one JSON record (bench name + fields + current metrics snapshot).
  void write_record(const std::vector<std::pair<std::string, double>>& fields);

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

 private:
  std::string bench_;
  obs::Session session_;
  std::string results_path_;
  bool recorded_ = false;
};

/// Everything a figure definition needs: the campaign engine (carrying
/// the CLI's jobs/cache/shard options), stdout, the optional CSV sink,
/// and the per-bench observability hookup.
class FigureContext {
 public:
  /// `timeline_path` is the --timeline file ("" without the flag); it is
  /// created, or truncated, when the first campaign has run.
  FigureContext(core::CampaignEngine& engine, BenchObs& obs, std::ostream& out,
                std::ostream* csv, std::string timeline_path = {})
      : engine_(engine),
        obs_(obs),
        out_(out),
        csv_(csv),
        timeline_path_(std::move(timeline_path)) {}

  /// Run (the local shard of) a campaign through the engine.  With
  /// --timeline, also appends the run's time-resolved samples
  /// (`campaign,point,time,series,value`; header once per file), whether
  /// or not the figure prints the campaign's table through print().
  core::CampaignRun run(const core::Campaign& campaign);

  /// Print a table to stdout and, when --csv was given, append the same
  /// table as CSV (prefixed by `name`).
  void print(const trace::Table& table, const std::string& name);

  /// Print a finished campaign's table (named after the campaign).
  void print(const core::Campaign& campaign, const core::CampaignRun& run);

  core::CampaignEngine& engine() { return engine_; }
  BenchObs& obs() { return obs_; }
  std::ostream& out() { return out_; }
  /// True once the figure ran a campaign (run_cli then reports the point
  /// totals; hand-loop figures print exactly their tables).
  [[nodiscard]] bool ran_campaign() const { return ran_campaign_; }
  /// True when the --timeline file could not be opened for writing.
  [[nodiscard]] bool timeline_failed() const { return timeline_failed_; }

 private:
  core::CampaignEngine& engine_;
  BenchObs& obs_;
  std::ostream& out_;
  std::ostream* csv_;
  std::string timeline_path_;
  std::ofstream timeline_;
  bool timeline_header_written_ = false;
  bool timeline_failed_ = false;
  bool ran_campaign_ = false;
};

using FigureFn = std::function<int(FigureContext&)>;

struct FigureDef {
  std::string name;      ///< CLI name: "fig04", "arch_sweep", ...
  std::string title;     ///< banner, e.g. "Fig. 4"
  std::string what;      ///< banner subtitle
  FigureFn fn;
  std::string obs_name;  ///< bench name in CCI_RESULTS records (default: name)
};

class FigureRegistry {
 public:
  static FigureRegistry& instance();
  void add(FigureDef def);
  [[nodiscard]] const FigureDef* find(const std::string& name) const;
  /// All registered figures, name-sorted.
  [[nodiscard]] std::vector<const FigureDef*> all() const;

 private:
  std::vector<FigureDef> defs_;
};

/// Static registrar: each bench/figures/*.cpp defines one at file scope.
/// obs_name keeps the long bench name (e.g. "fig04_memory_contention") on
/// CCI_RESULTS records for figures whose CLI name is the short one.
struct FigureRegistrar {
  FigureRegistrar(std::string name, std::string title, std::string what, FigureFn fn,
                  std::string obs_name = "");
};

/// Runs one figure: parses the campaign flags, sets up BenchObs + engine,
/// prints the banner, runs the figure, and reports the campaign point
/// totals when it ran any campaign.
int run_cli(const std::string& figure, int argc, char** argv);

/// cci_bench main: `cci_bench <figure> [flags]`, `cci_bench --list`.
int main_cli(int argc, char** argv);

}  // namespace cci::bench
