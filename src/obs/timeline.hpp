// In-memory time-series store for the simulated-time metrics sampler.
//
// A TimelineStore holds (time, series, value) rows in append order, one
// simulated-time-ordered segment per engine that sampled into it (each
// engine's clock starts at 0): series names are interned once, rows land
// in fixed-size blocks recycled through a thread-local slab pool
// (sim/pool.hpp — header-only and dependency-free, so this is not a
// layering cycle), and the store is ring-bounded — when the row budget is
// exhausted the oldest block is dropped and recycled, so a long campaign
// can sample forever in O(bound) memory.  Campaign workers each get their
// own pool, so per-point stores create and destroy without touching the
// global heap at steady state.
//
// The tidy CSV export writes one row per sample — `time,series,value` with
// optional caller-supplied prefix columns (campaign, point) — which loads
// straight into pandas/R without reshaping.  Values round-trip through
// %.17g, so two byte-identical stores produce byte-identical CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/pool.hpp"

namespace cci::obs {

/// One sampled value of an interned series at a simulated-time instant.
struct TimelineRow {
  double time = 0.0;
  std::uint32_t series = 0;  ///< index into TimelineStore::series_names()
  double value = 0.0;
};

class TimelineStore {
 public:
  /// Default row bound: plenty for a full campaign point at a sane period,
  /// small enough that a runaway sampler cannot eat the machine.  Bounds
  /// round up to whole blocks (eviction drops the oldest block at a time).
  static constexpr std::size_t kDefaultMaxRows = 1u << 20;
  static constexpr std::size_t kBlockRows = 1024;

  explicit TimelineStore(std::size_t max_rows = kDefaultMaxRows);
  TimelineStore(TimelineStore&&) = default;
  TimelineStore& operator=(TimelineStore&&) = default;
  TimelineStore(const TimelineStore&) = delete;
  TimelineStore& operator=(const TimelineStore&) = delete;

  /// Intern a series name; ids are dense and stable for the store's life.
  std::uint32_t series(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& series_names() const {
    return series_names_;
  }

  /// Append one row.  Within one sampler's segment rows arrive in
  /// non-decreasing time order; the store does not re-sort.
  void append(double time, std::uint32_t series, double value);

  /// Retained rows, oldest first.  O(1) random access across blocks.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const TimelineRow& row(std::size_t i) const {
    return blocks_[i / kBlockRows]->rows[i % kBlockRows];
  }
  /// Rows evicted by the ring bound (0 unless the store overflowed).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear();

  /// Tidy CSV: one `time,series,value` line per retained row, preceded by
  /// caller-supplied prefix columns when given (`prefix_header` names them,
  /// `prefix` is the rendered cell text for every row).  `with_header`
  /// controls the header line so several stores can share one file.
  void write_csv(std::ostream& os, std::string_view prefix_header = {},
                 std::string_view prefix = {}, bool with_header = true) const;

 private:
  struct RowBlock : sim::RcPooled<RowBlock> {
    TimelineRow rows[kBlockRows];
  };
  static sim::SlabPool<RowBlock>& block_pool();

  std::size_t max_rows_;
  std::size_t size_ = 0;  ///< retained rows
  std::uint64_t dropped_ = 0;
  std::vector<sim::RcPtr<RowBlock>> blocks_;
  std::map<std::string, std::uint32_t, std::less<>> series_ids_;
  std::vector<std::string> series_names_;
};

}  // namespace cci::obs
