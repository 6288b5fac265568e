// A shared, capacity-limited resource (memory controller, link, core, NIC).
#pragma once

#include <cassert>
#include <cstddef>
#include <string>

#include "obs/metrics.hpp"
#include "sim/maxmin.hpp"

namespace cci::sim {

class FlowModel;

class Resource {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double capacity() const { return capacity_; }
  /// Total usage allocated by the last max-min solve (read from the
  /// owning model's solver, which keeps the only copy).
  [[nodiscard]] double load() const { return solver_->load(index_); }
  /// Fraction of capacity in use, in [0, 1] (clamped).
  [[nodiscard]] double utilization() const {
    const double load = this->load();
    if (capacity_ <= 0.0) return load > 0.0 ? 1.0 : 0.0;
    double u = load / capacity_;
    return u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
  }
  /// Demand pressure: sum over flows of the usage they would generate if
  /// running alone (solo rate x demand), divided by capacity.  Unlike
  /// utilization this can exceed 1 and keeps growing with the number of
  /// contenders, which is what queueing delay responds to.
  [[nodiscard]] double pressure() const { return solver_->pressure(index_); }
  /// Change capacity (e.g. a frequency transition); triggers reallocation.
  void set_capacity(double capacity);
  /// Position in the owning model's resource table (registration order).
  [[nodiscard]] std::size_t index() const { return index_; }

 private:
  friend class FlowModel;
  Resource(FlowModel* model, const MaxMinSolver* solver, std::size_t index, std::string name,
           double capacity)
      : model_(model),
        solver_(solver),
        index_(index),
        name_(std::move(name)),
        capacity_(capacity) {
    assert(capacity >= 0.0);
  }

  FlowModel* model_;
  const MaxMinSolver* solver_;  ///< the model's solver; index_ is our solver slot
  std::size_t index_;  ///< position in the owning model's resource table
  std::string name_;
  double capacity_;
  // Observability: work-unit integral (bytes for links/controllers, cycles
  // for cores) plus the cached names of the load counter-sample series and
  // the span track activities are traced on (built once when the owning
  // model binds its metrics, so tracing never concatenates on the hot path).
  // All null/empty while the model is unbound (registry and tracer off).
  obs::Counter* obs_work_ = nullptr;
  obs::Gauge* obs_util_ = nullptr;      ///< sim.resource.<name>.utilization
  obs::Gauge* obs_pressure_ = nullptr;  ///< sim.resource.<name>.pressure
  std::string obs_load_series_;
  std::string obs_track_series_;
  double obs_last_sampled_load_ = -1.0;
};

}  // namespace cci::sim
