// A shared, capacity-limited resource (memory controller, link, core, NIC).
//
// A resource stores no name.  It keeps its owner (a ResourceNamer: the
// machine, NIC or fabric that registered it, or the model's own table for
// ad-hoc names) and a key, and name() has the owner format the name on
// demand.  Names are read only off the hot path: obs binding, stall
// reports, gauges named after a resource, fabric reports.  Resources keep
// their registration order; index() is the position in it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/maxmin.hpp"

namespace cci::sim {

class FlowModel;

/// Formats the names of the resources an object registered: each resource
/// keeps its owner and a key, and Resource::name() asks the owner.  The
/// owner must outlive every name() call on its resources.
class ResourceNamer {
 public:
  [[nodiscard]] virtual std::string resource_name(std::uint32_t key) const = 0;

 protected:
  ~ResourceNamer() = default;
};

class Resource {
 public:
  /// Formatted on demand by the resource's owner.
  [[nodiscard]] std::string name() const { return namer_->resource_name(key_); }
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
  Resource(FlowModel* model, const MaxMinSolver* solver, std::uint32_t index,
           const ResourceNamer* namer, std::uint32_t key, double capacity)
      : model_(model),
        solver_(solver),
        namer_(namer),
        index_(index),
        key_(key),
        capacity_(capacity) {
    assert(capacity >= 0.0);
  }

  FlowModel* model_;
  const MaxMinSolver* solver_;  ///< the model's solver; index_ is our solver slot
  const ResourceNamer* namer_;
  std::uint32_t index_;  ///< position in the owning model's resource table
  std::uint32_t key_;    ///< the owner's key for this resource's name
  double capacity_;
};

}  // namespace cci::sim
