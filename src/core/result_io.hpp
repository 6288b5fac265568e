// Result serialization: JSON records for downstream analysis pipelines.
//
// Every figure bench can be replotted offline; this writer produces a
// stable, self-describing JSON document from scenarios and results (no
// third-party JSON dependency — the subset we emit is trivial).  Records
// are exact: a number is written as the shortest text that parses back to
// the same bits (non-finite values as null), integers in full, and keys and
// strings with quotes, backslashes and control characters escaped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/interference_lab.hpp"
#include "obs/metrics.hpp"

namespace cci::core {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key);
  JsonWriter& end_array();
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, int value);
  JsonWriter& field(const std::string& key, std::uint64_t value);
  /// Open a nested object under `key`.
  JsonWriter& object_field(const std::string& key);

 private:
  void comma();
  void indent();
  void key(const std::string& k);  ///< separator, then `"k": `
  std::ostream& os_;
  int depth_ = 0;
  std::vector<bool> first_in_scope_;
};

/// Serialize one scenario + its three-phase result as a JSON object.  When
/// the global obs::Registry is enabled, the record carries a "metrics"
/// object with its current snapshot, so every result is self-describing
/// telemetry-wise.
void write_result_json(std::ostream& os, const Scenario& scenario,
                       const SideBySideResult& result);

/// Emit `"metrics": {...}` into an open JSON object: counters/gauges as
/// flat values, histograms as {count, sum, mean, p50, p90, p99, max}.
void write_metrics_json(JsonWriter& w, const obs::Snapshot& snapshot);

/// Generic bench record: bench name, flat numeric fields, and (optionally)
/// a metrics snapshot.  Used by bench binaries that don't follow the
/// Scenario/SideBySideResult protocol.
void write_bench_json(std::ostream& os, const std::string& bench,
                      const std::vector<std::pair<std::string, double>>& fields,
                      const obs::Snapshot* metrics);

}  // namespace cci::core
