// Simulated-time metrics sampler: end-of-run totals -> timelines.
//
// A Sampler turns the registry's cumulative metrics into a deterministic
// time series: it fires on a fixed simulated-time tick grid (tick k at
// k * period, computed by multiplication so the grid never drifts) and
// records, per tick,
//
//   * every counter's delta since the previous tick (only when nonzero),
//   * every gauge's current value (only when it changed),
//   * every histogram's count delta plus its cumulative p50/p90/p99
//     (only when the count moved),
//
// into a TimelineStore.  Sampling sim-side state through the registry keeps
// the feed deterministic: two identical simulations produce byte-identical
// timelines regardless of thread count, sharding or CCI_SIM_POOLS — the
// deny lists below exist precisely to drop the metrics that are *not*
// simulation-deterministic (pool occupancy, wall-clock histograms, the
// host.* health rows such as ShardGroup's per-worker busy and wait times).
//
// Who samples: every sim::Engine built while its thread's RunSampling is
// on creates and owns a Sampler into that RunSampling's store, so each
// engine appends one segment whose ticks start at t = 0 and whose deltas
// count from the engine's construction (channels start at the registry's
// values then).  The engine drives it from its event loop: advance_to(t)
// runs before the first event at any time >= the next tick, so the sample
// at tick T reflects every event strictly before T and none at T — the
// documented tie-break.  An engine without a sampler pays one pointer
// test per event; the 0-allocs/event guard runs with it compiled in.
//
// When the tracer is enabled every appended row is mirrored as a tracer
// counter sample, which the Chrome exporter renders as Perfetto counter
// tracks — utilization timelines in the trace viewer for free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace cci::obs {

struct SamplerConfig {
  /// Simulated seconds between ticks.  Must be > 0.
  double period = 1e-3;
  /// Metrics whose name starts with an entry are never sampled.
  std::vector<std::string> deny_prefixes{"sim.pool.", "host."};
  /// Metrics whose name contains an entry are never sampled.
  std::vector<std::string> deny_substrings{"wall_us"};
};

class Sampler {
 public:
  /// Channels of the metrics `registry` already holds start at their
  /// current values; metrics created later start at zero.
  Sampler(Registry& registry, TimelineStore& store, SamplerConfig config = {});

  /// Fire every pending tick with tick time <= t, in order.  Called by the
  /// engine before dispatching events at time t and once more when a run
  /// drains; safe to call with non-monotonic t (no-op when behind).
  void advance_to(double t);

  [[nodiscard]] double next_tick() const { return next_tick_; }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  [[nodiscard]] const SamplerConfig& config() const { return config_; }
  [[nodiscard]] TimelineStore& store() { return *store_; }

 private:
  struct Channel {
    bool denied = false;
    double last = 0.0;                ///< counter total / gauge value / hist count
    std::uint32_t series[4] = {0, 0, 0, 0};  ///< value (+ p50/p90/p99 for hists)
  };

  void take_sample(double t);
  Channel& channel(const void* metric, const std::string& name, bool histogram);
  [[nodiscard]] bool denied(const std::string& name) const;
  void emit(double t, std::uint32_t series, double value, bool mirror);

  Registry* registry_;
  TimelineStore* store_;
  SamplerConfig config_;
  std::uint64_t tick_index_ = 0;  ///< ticks fired so far
  double next_tick_;
  std::uint64_t samples_ = 0;
  std::unordered_map<const void*, Channel> channels_;
};

/// Ambient per-run observability request: when timeline_period > 0 and a
/// store is given, every sim::Engine built on the thread samples into the
/// store (the store must outlive those engines); when attribution is set,
/// InterferenceLab runs the flow model's interference profiler.  The
/// campaign engine installs this around each point so per-point sampling
/// composes with worker threads and the result cache without touching
/// Scenario (and so cache keys stay stable); sim::ShardGroup gives each
/// shard its own store and folds them back in merge_obs().
struct RunSampling {
  double timeline_period = 0.0;
  TimelineStore* timeline = nullptr;
  bool attribution = false;
  [[nodiscard]] bool sampling_on() const {
    return timeline_period > 0.0 && timeline != nullptr;
  }
};

/// The thread's current RunSampling (all-off by default).
[[nodiscard]] const RunSampling& run_sampling();

/// Install `config` as the thread's RunSampling for the scope's lifetime.
class ScopedRunSampling {
 public:
  explicit ScopedRunSampling(const RunSampling& config);
  ~ScopedRunSampling();
  ScopedRunSampling(const ScopedRunSampling&) = delete;
  ScopedRunSampling& operator=(const ScopedRunSampling&) = delete;

 private:
  RunSampling previous_;
};

}  // namespace cci::obs
