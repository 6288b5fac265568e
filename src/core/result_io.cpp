#include "core/result_io.hpp"

#include <optional>
#include <ostream>

#include "obs/json.hpp"

namespace cci::core {

JsonWriter::JsonWriter(std::ostream& os) : os_(os) { first_in_scope_.push_back(true); }
JsonWriter::~JsonWriter() = default;

void JsonWriter::comma() {
  if (!first_in_scope_.back()) os_ << ",";
  first_in_scope_.back() = false;
  os_ << "\n";
  indent();
}

void JsonWriter::key(const std::string& k) {
  comma();
  obs::write_json_string(os_, k);
  os_ << ": ";
}

void JsonWriter::indent() {
  for (int i = 0; i < depth_; ++i) os_ << "  ";
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  os_ << "{";
  ++depth_;
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  --depth_;
  first_in_scope_.pop_back();
  os_ << "\n";
  indent();
  os_ << "}";
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  key(k);
  os_ << "[";
  ++depth_;
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  --depth_;
  first_in_scope_.pop_back();
  os_ << "\n";
  indent();
  os_ << "]";
  return *this;
}

JsonWriter& JsonWriter::object_field(const std::string& k) {
  key(k);
  os_ << "{";
  ++depth_;
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, double value) {
  key(k);
  obs::write_json_number(os_, value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& value) {
  key(k);
  obs::write_json_string(os_, value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, int value) {
  key(k);
  obs::write_json_number(os_, static_cast<std::int64_t>(value));
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t value) {
  key(k);
  obs::write_json_number(os_, value);
  return *this;
}

namespace {

void write_stats(JsonWriter& w, const char* key, const trace::Stats& s) {
  w.object_field(key);
  w.field("n", static_cast<int>(s.n));
  w.field("median", s.median);
  w.field("decile1", s.decile1);
  w.field("decile9", s.decile9);
  w.field("mean", s.mean);
  w.end_object();
}

void write_comm(JsonWriter& w, const char* key, const CommPhase& phase) {
  w.object_field(key);
  write_stats(w, "latency_s", phase.latency);
  write_stats(w, "bandwidth_Bps", phase.bandwidth);
  w.end_object();
}

void write_compute(JsonWriter& w, const char* key, const ComputePhase& phase) {
  w.object_field(key);
  write_stats(w, "pass_duration_s", phase.pass_duration);
  write_stats(w, "per_core_bandwidth_Bps", phase.per_core_bandwidth);
  w.field("mem_stall_fraction", phase.mem_stall_fraction);
  w.end_object();
}

}  // namespace

void write_metrics_json(JsonWriter& w, const obs::Snapshot& snapshot) {
  w.object_field("metrics");
  for (const auto& e : snapshot.entries) {
    using Kind = obs::Snapshot::Entry::Kind;
    switch (e.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        w.field(e.name, e.value);
        break;
      case Kind::kHistogram:
        w.object_field(e.name);
        w.field("count", static_cast<double>(e.count));
        w.field("sum", e.sum);
        w.field("mean", e.value);
        w.field("p50", e.p50);
        w.field("p90", e.p90);
        w.field("p99", e.p99);
        w.field("max", e.max);
        w.end_object();
        break;
    }
  }
  w.end_object();
}

void write_bench_json(std::ostream& os, const std::string& bench,
                      const std::vector<std::pair<std::string, double>>& fields,
                      const obs::Snapshot* metrics) {
  JsonWriter w(os);
  w.begin_object();
  w.field("bench", bench);
  for (const auto& [key, value] : fields) w.field(key, value);
  if (metrics) write_metrics_json(w, *metrics);
  w.end_object();
  os << "\n";
}

void write_result_json(std::ostream& os, const Scenario& scenario,
                       const SideBySideResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.object_field("scenario");
  w.field("machine", scenario.machine.name);
  w.field("fabric", scenario.network.fabric);
  w.field("kernel", scenario.kernel.name);
  w.field("arithmetic_intensity", scenario.kernel.arithmetic_intensity());
  w.field("computing_cores", scenario.computing_cores);
  w.field("message_bytes", static_cast<double>(scenario.message_bytes));
  w.field("data_placement", to_string(scenario.data));
  w.field("comm_thread_placement", to_string(scenario.comm_thread));
  w.field("seed", scenario.seed);
  w.end_object();
  write_compute(w, "compute_alone", result.compute_alone);
  write_comm(w, "comm_alone", result.comm_alone);
  write_compute(w, "compute_together", result.compute_together);
  write_comm(w, "comm_together", result.comm_together);
  if (obs::Registry::global().enabled()) {
    const obs::Snapshot snapshot = obs::Registry::global().snapshot();
    // Fault-layer telemetry exists only when a FaultModel was installed:
    // try_value_of distinguishes "no fault layer" (object omitted entirely)
    // from a faulted run that happened to lose nothing (explicit zeros).
    const std::optional<double> lost = snapshot.try_value_of("net.messages_lost");
    const std::optional<double> corrupted =
        snapshot.try_value_of("net.messages_corrupted");
    if (lost || corrupted) {
      w.object_field("faults");
      if (lost) w.field("messages_lost", *lost);
      if (corrupted) w.field("messages_corrupted", *corrupted);
      w.end_object();
    }
    write_metrics_json(w, snapshot);
  }
  w.end_object();
  os << "\n";
}

}  // namespace cci::core
