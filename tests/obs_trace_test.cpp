// Chrome trace-event export: output must be valid JSON, timed events must
// carry monotonically non-decreasing ts, and every lane's B/E events must
// form a properly nested (stack-matched) sequence — Perfetto rejects
// anything less.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cci::obs {
namespace {

// --- Minimal JSON parser (objects, arrays, strings, numbers, bools) --------
// Just enough to validate our own exporter; throws std::runtime_error on
// malformed input via ADD_FAILURE + nullptr returns.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::unique_ptr<JsonValue>> array;
  std::map<std::string, std::unique_ptr<JsonValue>> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : it->second.get();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::unique_ptr<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing garbage");
    return v;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::unique_ptr<JsonValue> fail(const std::string& why) {
    ok_ = false;
    if (error_.empty()) error_ = why + " at offset " + std::to_string(pos_);
    return nullptr;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::unique_ptr<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }

  std::unique_ptr<JsonValue> object() {
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kObject;
    if (!consume('{')) return fail("expected {");
    if (consume('}')) return v;
    do {
      skip_ws();
      auto key = string_value();
      if (!key) return nullptr;
      if (!consume(':')) return fail("expected :");
      auto val = value();
      if (!val) return nullptr;
      v->object[key->str] = std::move(val);
    } while (consume(','));
    if (!consume('}')) return fail("expected }");
    return v;
  }

  std::unique_ptr<JsonValue> array() {
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kArray;
    if (!consume('[')) return fail("expected [");
    if (consume(']')) return v;
    do {
      auto val = value();
      if (!val) return nullptr;
      v->array.push_back(std::move(val));
    } while (consume(','));
    if (!consume(']')) return fail("expected ]");
    return v;
  }

  std::unique_ptr<JsonValue> string_value() {
    if (!consume('"')) return fail("expected string");
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail("bad escape");
        switch (s_[pos_]) {
          case 'n': v->str += '\n'; break;
          case 't': v->str += '\t'; break;
          case 'u':
            if (pos_ + 4 >= s_.size()) return fail("bad \\u escape");
            pos_ += 4;  // keep validation simple: skip the code point
            break;
          default: v->str += s_[pos_];
        }
        ++pos_;
      } else {
        v->str += s_[pos_++];
      }
    }
    if (!consume('"')) return fail("unterminated string");
    return v;
  }

  std::unique_ptr<JsonValue> boolean() {
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v->boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      return fail("bad literal");
    }
    return v;
  }

  std::unique_ptr<JsonValue> null_value() {
    if (s_.compare(pos_, 4, "null") != 0) return fail("bad literal");
    pos_ += 4;
    return std::make_unique<JsonValue>();
  }

  std::unique_ptr<JsonValue> number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return fail("expected number");
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kNumber;
    v->number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

std::unique_ptr<JsonValue> export_and_parse(const Tracer& tracer, std::string* raw = nullptr) {
  std::ostringstream os;
  write_chrome_trace(os, tracer);
  if (raw) *raw = os.str();
  std::string text = os.str();
  JsonParser p(text);
  auto doc = p.parse();
  EXPECT_TRUE(p.ok()) << p.error();
  return doc;
}

Tracer make_busy_tracer() {
  Tracer tr;
  tr.set_enabled(true);
  TrackId core = tr.track("rt.rank0.core0");
  TrackId rank = tr.track("mpi.rank0");
  TrackId res = tr.track("sim.res.node0.memctrl0");
  // Nested spans on one track.
  tr.span(core, "outer", 0.0, 10.0e-6);
  tr.span(core, "inner", 2.0e-6, 5.0e-6);
  // Genuinely overlapping spans (MPI lifecycle style) — forces lane spill.
  tr.span(rank, "rndv A", 1.0e-6, 8.0e-6);
  tr.span(rank, "rndv B", 4.0e-6, 12.0e-6);
  tr.span(res, "activity", 0.5e-6, 9.0e-6);
  tr.counter_sample("sim.resource.load", 3.0e-6, 0.75);
  tr.instant(rank, "unexpected msg", 6.0e-6);
  return tr;
}

// --- Tests ------------------------------------------------------------------

TEST(ChromeTrace, EmptyTracerProducesValidJson) {
  Tracer tr;
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->type, JsonValue::Type::kArray);
}

TEST(ChromeTrace, ProducesValidJsonWithAllEventKinds) {
  Tracer tr = make_busy_tracer();
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_b = false, saw_e = false, saw_i = false, saw_c = false, saw_m = false;
  for (const auto& ev : events->array) {
    const JsonValue* ph = ev->get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "B") saw_b = true;
    if (ph->str == "E") saw_e = true;
    if (ph->str == "i") saw_i = true;
    if (ph->str == "C") saw_c = true;
    if (ph->str == "M") saw_m = true;
  }
  EXPECT_TRUE(saw_b && saw_e && saw_i && saw_c && saw_m);
}

TEST(ChromeTrace, TimedEventTimestampsAreMonotonic) {
  Tracer tr = make_busy_tracer();
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  double prev = -1.0;
  int timed = 0;
  for (const auto& ev : doc->get("traceEvents")->array) {
    const std::string& ph = ev->get("ph")->str;
    if (ph == "M") continue;  // metadata carries no ts
    const JsonValue* ts = ev->get("ts");
    ASSERT_NE(ts, nullptr) << "timed event without ts";
    EXPECT_GE(ts->number, prev) << "ts went backwards";
    prev = ts->number;
    ++timed;
  }
  EXPECT_GT(timed, 6);
}

TEST(ChromeTrace, BeginEndEventsMatchPerLane) {
  Tracer tr = make_busy_tracer();
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  std::map<int, std::vector<std::string>> stacks;  // tid -> open span names
  for (const auto& ev : doc->get("traceEvents")->array) {
    const std::string& ph = ev->get("ph")->str;
    if (ph != "B" && ph != "E") continue;
    int tid = static_cast<int>(ev->get("tid")->number);
    const std::string& name = ev->get("name")->str;
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else {
      ASSERT_FALSE(stacks[tid].empty()) << "E without matching B on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), name) << "mis-nested E on tid " << tid;
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST(ChromeTrace, OverlappingSpansSpillToSeparateLanes) {
  Tracer tr = make_busy_tracer();
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  // The two overlapping rndv spans cannot share a lane; thread_name
  // metadata must therefore include an overflow row "mpi.rank0 #2".
  bool saw_overflow = false;
  for (const auto& ev : doc->get("traceEvents")->array) {
    if (ev->get("ph")->str != "M") continue;
    const JsonValue* args = ev->get("args");
    if (!args) continue;
    const JsonValue* name = args->get("name");
    if (name && name->str == "mpi.rank0 #2") saw_overflow = true;
  }
  EXPECT_TRUE(saw_overflow);
}

TEST(ChromeTrace, SimSecondsBecomeTraceMicroseconds) {
  Tracer tr;
  tr.set_enabled(true);
  TrackId t = tr.track("row");
  tr.span(t, "s", 1.5e-6, 2.0);  // 1.5 us .. 2 s
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  double b_ts = -1, e_ts = -1;
  for (const auto& ev : doc->get("traceEvents")->array) {
    if (ev->get("ph")->str == "B") b_ts = ev->get("ts")->number;
    if (ev->get("ph")->str == "E") e_ts = ev->get("ts")->number;
  }
  EXPECT_NEAR(b_ts, 1.5, 1e-9);
  EXPECT_NEAR(e_ts, 2e6, 1e-3);
}

TEST(ChromeTrace, SpanNamesAreEscaped) {
  Tracer tr;
  tr.set_enabled(true);
  TrackId t = tr.track("row \"quoted\"");
  tr.span(t, "name with \"quotes\" and \\slash\\", 0.0, 1.0e-6);
  std::string raw;
  auto doc = export_and_parse(tr, &raw);
  ASSERT_NE(doc, nullptr) << raw;
  bool found = false;
  for (const auto& ev : doc->get("traceEvents")->array) {
    if (ev->get("ph")->str == "B" &&
        ev->get("name")->str == "name with \"quotes\" and \\slash\\")
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, CounterValuesRoundTripBitForBit) {
  // Shortest round-trip text, not the stream's 6 significant digits (which
  // print 10044612345.678901 as 1.00446e+10); non-finite values as null.
  const std::vector<double> values = {10044612345.678901, 0.1 + 0.2, 1.2345678901234567e-300, -2.5};
  Tracer tr;
  tr.set_enabled(true);
  for (std::size_t i = 0; i < values.size(); ++i)
    tr.counter_sample("sim.resource.load", 1.0e-6 * static_cast<double>(i + 1), values[i]);
  tr.counter_sample("sim.resource.load", 1.0e-5, std::numeric_limits<double>::infinity());
  tr.counter_sample("sim.resource.load", 2.0e-5, std::numeric_limits<double>::quiet_NaN());
  auto doc = export_and_parse(tr);
  ASSERT_NE(doc, nullptr);
  std::vector<const JsonValue*> read;
  for (const auto& ev : doc->get("traceEvents")->array)
    if (ev->get("ph")->str == "C") read.push_back(ev->get("args")->get("value"));
  ASSERT_EQ(read.size(), values.size() + 2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(read[i]->type, JsonValue::Type::kNumber) << i;
    EXPECT_EQ(std::memcmp(&read[i]->number, &values[i], sizeof(double)), 0)
        << i << ": " << read[i]->number;
  }
  EXPECT_EQ(read[values.size()]->type, JsonValue::Type::kNull);
  EXPECT_EQ(read[values.size() + 1]->type, JsonValue::Type::kNull);
}

}  // namespace
}  // namespace cci::obs
