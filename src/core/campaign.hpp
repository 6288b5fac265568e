// Parallel experiment campaigns: typed multi-axis sweeps over Scenario,
// executed concurrently with content-addressed result caching.
//
// The paper's results are all sweeps — core counts x placements x message
// sizes x kernels — and the figure benches used to hand-roll every loop.
// This layer splits the problem in three:
//
//   * SweepSpec  — the *what varies*: a declarative, typed grid over
//     Scenario (int cores, size_t message bytes, enum placements, kernel
//     traits...), expanded into an ordered point list.  Values keep their
//     native types end to end; nothing round-trips through double.
//   * Campaign   — the *what is measured*: named output columns computed
//     from each point's SideBySideResult (or a custom evaluator for
//     workloads outside the InterferenceLab protocol).
//   * CampaignEngine — the *how*: a work-stealing thread pool runs points
//     concurrently; per-point deterministic seeding makes an N-thread run
//     bitwise-identical to the 1-thread run; a content-addressed on-disk
//     cache lets re-runs and sharded campaigns skip solved points.
//
// See docs/CAMPAIGNS.md for the grammar, cache-key semantics and sharding.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/interference_lab.hpp"
#include "obs/timeline.hpp"
#include "trace/table.hpp"

namespace cci::core {

// ---- deterministic seeding --------------------------------------------------

/// SplitMix64-style mix of a base seed and a point index.  Every campaign
/// point gets seed = mix_seed(base.seed, index), so the RNG stream of a
/// point depends only on the spec — never on which thread ran it or on how
/// many points ran before it.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

/// How per-point seeds are derived during expansion.
///  * kPerPoint — scenario.seed = mix_seed(base.seed, point index); the
///    default: points are statistically independent replicas.
///  * kFixed   — every point keeps the base scenario's seed verbatim; what
///    the historical hand-written figure loops did.  The migrated figure
///    definitions use this so their tables stay byte-for-byte identical.
enum class SeedPolicy { kPerPoint, kFixed };

// ---- canonical paper value lists -------------------------------------------

/// Computing-core counts used by the paper's sweeps (previously duplicated
/// as bench::core_sweep): {0,1,2,3,5,8,...} clipped to, then including,
/// max_cores.
[[nodiscard]] std::vector<int> paper_core_counts(int max_cores);

/// NetPIPE-style message sizes, 4 B to 64 MB in x4 steps (previously
/// bench::size_sweep).
[[nodiscard]] std::vector<std::size_t> paper_message_sizes();

// ---- sweep specification ----------------------------------------------------

/// One expanded grid point: the fully-mutated scenario plus, per axis, a
/// display label (table cell / cache key) and a numeric projection of the
/// axis value (CSV-friendly; what metric columns may consult).
struct SweepPoint {
  std::size_t index = 0;  ///< position in the full grid, row-major
  Scenario scenario;
  std::vector<std::string> labels;
  std::vector<double> numeric;
};

/// Declarative, typed multi-axis grid over Scenario.  Axes expand
/// row-major: the first declared axis varies slowest, the last fastest —
/// matching the nesting order of the hand-written loops it replaces.
class SweepSpec {
 public:
  explicit SweepSpec(Scenario base) : base_(std::move(base)) {}

  /// Generic typed axis: how a value mutates the scenario, how it prints,
  /// and (optionally) its numeric projection for columns/CSV.
  template <typename T>
  SweepSpec& axis(std::string label, const std::vector<T>& values,
                  std::function<void(Scenario&, const T&)> set,
                  std::function<std::string(const T&)> format,
                  std::function<double(const T&)> numeric = nullptr) {
    Axis ax;
    ax.label = std::move(label);
    ax.points.reserve(values.size());
    for (const T& v : values) {
      BoundValue bv;
      bv.label = format(v);
      bv.numeric = numeric ? numeric(v) : static_cast<double>(ax.points.size());
      bv.apply = [set, v](Scenario& s) { set(s, v); };
      ax.points.push_back(std::move(bv));
    }
    axes_.push_back(std::move(ax));
    return *this;
  }

  // Typed conveniences for the paper's usual axes.  Labels match what the
  // hand-written tables printed (integers via std::to_string, which equals
  // Table's %.4g rendering for the value ranges in use).
  SweepSpec& cores(std::string label, const std::vector<int>& values);
  SweepSpec& message_bytes(std::string label, const std::vector<std::size_t>& values);
  SweepSpec& comm_thread_placement(std::string label, const std::vector<Placement>& values);
  SweepSpec& data_placement(std::string label, const std::vector<Placement>& values);
  /// Kernel axis: (display name, traits) pairs.
  SweepSpec& kernels(std::string label,
                     const std::vector<std::pair<std::string, hw::KernelTraits>>& values);
  /// Double-valued axis rendered with the Table's %.4g formatting.
  SweepSpec& values(std::string label, const std::vector<double>& vals,
                    std::function<void(Scenario&, double)> set);

  SweepSpec& seed_policy(SeedPolicy p) {
    seed_policy_ = p;
    return *this;
  }

  [[nodiscard]] const Scenario& base() const { return base_; }
  [[nodiscard]] SeedPolicy seed_policy() const { return seed_policy_; }
  [[nodiscard]] std::vector<std::string> axis_labels() const;
  [[nodiscard]] std::size_t point_count() const;

  /// Expand the grid into its ordered point list, applying the seed policy
  /// (`base_seed_override`, when >= 0 semantics: used instead of
  /// base().seed as the mix base; pass nullptr for the spec's own seed).
  [[nodiscard]] std::vector<SweepPoint> expand(const std::uint64_t* base_seed_override =
                                                   nullptr) const;

 private:
  struct BoundValue {
    std::string label;
    double numeric = 0.0;
    std::function<void(Scenario&)> apply;
  };
  struct Axis {
    std::string label;
    std::vector<BoundValue> points;
  };

  Scenario base_;
  std::vector<Axis> axes_;
  SeedPolicy seed_policy_ = SeedPolicy::kPerPoint;
};

// ---- campaign: spec + output columns ----------------------------------------

class Campaign {
 public:
  /// Output column value, computed from a point and its protocol result.
  using Metric = std::function<double(const SweepPoint&, const SideBySideResult&)>;
  /// Optional per-column text rendering (default: Table's %.4g).
  using Formatter = std::function<std::string(const SweepPoint&, double)>;
  /// Custom evaluator: computes all column values directly, bypassing the
  /// InterferenceLab protocol (for runtime-app campaigns etc.).
  using Evaluator = std::function<std::vector<double>(const SweepPoint&)>;

  Campaign(std::string name, SweepSpec spec)
      : name_(std::move(name)), spec_(std::move(spec)) {}

  /// Numeric column rendered with the Table's default %.4g.
  Campaign& column(std::string label, Metric fn);
  /// Column rendered with trace::fmt(value, digits).
  Campaign& column(std::string label, int digits, Metric fn);
  /// Column with a custom text rendering of the numeric value.
  Campaign& column(std::string label, Formatter format, Metric fn);

  /// Replace the default InterferenceLab protocol with a custom evaluator.
  /// The id is hashed into every cache key: two campaigns whose points
  /// carry identical scenarios but different evaluators never collide.
  Campaign& evaluator(std::string id, Evaluator fn);

  /// Enable the interference-attribution profiler for every point (default
  /// protocol only): SideBySideResult.attribution is filled, so columns may
  /// consult the victim/aggressor matrix.  Folds "+attrib" into the
  /// evaluator id — attribution changes no stored value today, but keeping
  /// the cache keys distinct means later attribution-derived columns can
  /// never be served from a matrix-less entry.
  Campaign& with_attribution();
  [[nodiscard]] bool attribution() const { return attribution_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const SweepSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& evaluator_id() const { return evaluator_id_; }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }
  [[nodiscard]] std::vector<std::string> column_labels() const;

  /// Evaluate one point (the worker-thread hot path).  Returns the column
  /// values; sim_seconds receives the point's simulated duration (0 for
  /// custom evaluators), used for the per-point trace span.
  [[nodiscard]] std::vector<double> evaluate(const SweepPoint& point,
                                             double* sim_seconds) const;

  /// Render one cell of column `col` for `point`.
  [[nodiscard]] std::string format_cell(std::size_t col, const SweepPoint& point,
                                        double value) const;

  // ---- prebuilt metrics (the old core::Sweep set, point-aware) -------------
  static Metric latency_together_us();
  static Metric latency_ratio();
  static Metric bandwidth_together_gbps();
  static Metric bandwidth_ratio();
  static Metric stream_per_core_gbps();
  static Metric stall_fraction();
  // Attribution-derived columns (require with_attribution()):
  /// contended[comm][compute] / isolated[comm] — how much the computation
  /// stretched communication in the side-by-side phase.
  static Metric comm_slowdown_from_compute();
  /// contended[compute][comm] / isolated[compute] — the reverse direction.
  static Metric compute_slowdown_from_comm();
  /// Fraction of comm busy time lost to any contention.
  static Metric comm_contended_fraction();
  /// Fraction of compute busy time lost to any contention.
  static Metric compute_contended_fraction();

 private:
  struct Column {
    std::string label;
    Metric fn;
    Formatter format;  ///< null = Table default %.4g
  };

  std::string name_;
  SweepSpec spec_;
  std::vector<Column> columns_;
  std::string evaluator_id_ = "interference_lab.v1";
  Evaluator evaluator_;
  bool attribution_ = false;
};

// ---- cache ------------------------------------------------------------------

/// Content-addressed key of one campaign point: FNV-1a 64 over the schema
/// version, the evaluator id, the axis and column labels, the point's axis
/// value labels, and the canonical serialization of its scenario (every
/// machine/network/kernel/scenario field, doubles as %.17g).  Anything
/// that could change the stored values changes the key.
[[nodiscard]] std::uint64_t cache_key(const Campaign& campaign, const SweepPoint& point);

/// Canonical scenario serialization used by the cache key (exposed for
/// tests; the format is versioned by kCampaignSchemaVersion).
void serialize_scenario(std::ostream& os, const Scenario& s);

// v2: cache key folds in the process-wide simulation shard count, so
// cached points can never mix shard configurations (dropped in v5).
// v3: scenario serialization covers the fabric topology (kind, routing
// policy, adaptive threshold, shape parameters) and the multi-job tenant
// list (label, rank->node mapping, traffic shape per JobSpec).
// v4: every entry stores the exact text its key hashes, and a load
// compares it, so a 64-bit key collision is a counted rejection
// (campaign.cache_rejected), never a wrong hit.
// v5: the key drops the simulation shard count: every evaluator that
// shards names its count in code, so the count is part of the evaluator.
inline constexpr int kCampaignSchemaVersion = 5;

// ---- engine -----------------------------------------------------------------

struct CampaignOptions {
  /// Worker threads for point execution.  1 = run inline on the calling
  /// thread (feeding the process-wide obs registry exactly like the old
  /// hand-written loops); N > 1 = work-stealing pool where every point
  /// records into its own registry, folded back in point order.
  int jobs = 1;
  /// Directory of the on-disk result cache; empty disables caching.
  std::string cache_dir;
  /// Shard selection: this engine runs points with index % shard_count ==
  /// shard_index.  The union of all shards is the full grid.
  int shard_index = 0;
  int shard_count = 1;
  /// When set, replaces the base scenario's seed as the mix base.
  bool override_base_seed = false;
  std::uint64_t base_seed = 0;
  /// > 0 enables time-resolved sampling: every point runs with a fresh,
  /// enabled registry of its own and an ambient obs::RunSampling at this
  /// period, so every engine the point builds samples into
  /// CampaignRun::timelines[i], one segment per engine.  Per-point
  /// registries make the timeline bytes independent of jobs/sharding.
  /// The cache holds values, not samples, so a sampled run reads no cache
  /// entry: every point executes, and its values are still stored.  0
  /// (default) leaves every pre-existing code path — including the process
  /// registry's contents — bitwise untouched.
  double timeline_period = 0.0;
};

/// One executed (sharded) campaign: the point list, the value matrix, and
/// provenance.  table() renders axis labels + formatted columns.
struct CampaignRun {
  std::vector<std::string> headers;
  std::vector<SweepPoint> points;           ///< this shard's points, grid order
  std::vector<std::vector<double>> values;  ///< [point][column]
  std::vector<bool> from_cache;             ///< per point
  std::vector<obs::TimelineStore> timelines;  ///< per point; empty unless
                                              ///< timeline_period > 0
  std::size_t grid_total = 0;               ///< full grid size (all shards)
  std::size_t executed = 0;                 ///< points actually simulated here
  std::size_t cached = 0;                   ///< points served from the cache

  [[nodiscard]] trace::Table table(const Campaign& campaign) const;

  /// Tidy timeline CSV: `campaign,point,time,series,value`, one row per
  /// sample, points in grid order (`point` is the global grid index, so
  /// shard outputs concatenate into the jobs=1 whole-grid file).  Pass
  /// with_header=false when appending to a file that already has one.
  void write_timeline_csv(std::ostream& os, const std::string& campaign_name,
                          bool with_header = true) const;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignOptions options = {});

  /// Run (the local shard of) a campaign: resolve cached points, execute
  /// the misses on the pool, persist new results, merge worker metrics,
  /// bump campaign.points_* counters and emit per-point trace spans.
  CampaignRun run(const Campaign& campaign);

  [[nodiscard]] const CampaignOptions& options() const { return options_; }

  /// Cumulative totals across every campaign this engine ran.
  [[nodiscard]] std::size_t points_total() const { return points_total_; }
  [[nodiscard]] std::size_t points_executed() const { return points_executed_; }
  [[nodiscard]] std::size_t points_cached() const { return points_cached_; }

 private:
  CampaignOptions options_;
  std::size_t points_total_ = 0;
  std::size_t points_executed_ = 0;
  std::size_t points_cached_ = 0;
};

}  // namespace cci::core
