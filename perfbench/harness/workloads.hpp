// The benchmark's workloads.  Each drives cci-lab through its public API
// only: a set-up stage (everything built before the first simulated event)
// and a batch (a fixed amount of simulated work whose outputs are checked).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;    ///< harness self-test sizes
  int workers = 1;      ///< campaign jobs and simulation shards
  std::string scratch;  ///< directory for campaign caches
};

/// Named values: deterministic counts, or per-layer metrics.
using Values = std::map<std::string, double>;

/// Outcome of one batch.
struct Batch {
  double wall_s = 0.0;  ///< host seconds of the timed section
  double cpu_s = 0.0;   ///< process user+sys seconds of the timed section
  std::uint64_t attempted = 0;  ///< campaign points and fabric runs
  std::uint64_t failed = 0;     ///< threw, or broke an output check
  std::vector<std::string> errors;  ///< one line per failed check
  /// Simulated-work counts taken from the library's own return values; they
  /// are a pure function of the seed and must repeat exactly.
  Values counts;
  /// Workload-specific host times of sub-steps (seconds).
  Values times;
  /// One-line human summary of the simulated results.
  std::string summary;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the workload needs before its first simulated event.
  virtual void setup(Recorder& rec) = 0;
  /// Run and check one batch; setup() must have run.
  virtual Batch run_batch(Recorder& rec) = 0;
  /// Untraced extra passes for per-layer ratios (campaign jobs=1, shards=1),
  /// compared against `untraced`, an untraced batch of the same run.
  virtual void reference_metrics(const Batch& untraced, Values& out) = 0;
  /// Per-layer metrics read from the spans of a traced setup and of the
  /// traced batch that followed it.
  virtual void traced_metrics(const std::vector<Span>& setup, const std::vector<Span>& batch,
                              const Batch& traced, Values& out) = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(std::string_view name, const Options& opt);

}  // namespace perfbench
