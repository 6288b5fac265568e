// JSON result serialization: structure and round-trippable values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "core/result_io.hpp"
#include "kernels/stream.hpp"

namespace cci::core {
namespace {

TEST(ResultIo, JsonWriterNestsAndSeparates) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("a", 1.5);
    w.field("b", std::string("x"));
    w.object_field("inner");
    w.field("c", 2);
    w.end_object();
    w.begin_array("arr");
    w.begin_object();
    w.field("d", 3);
    w.end_object();
    w.end_array();
    w.end_object();
  }
  std::string out = os.str();
  EXPECT_NE(out.find("\"a\": 1.5"), std::string::npos);
  EXPECT_NE(out.find("\"inner\": {"), std::string::npos);
  EXPECT_NE(out.find("\"arr\": ["), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'), std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['), std::count(out.begin(), out.end(), ']'));
  // No trailing comma before a closing brace.
  EXPECT_EQ(out.find(",\n}"), std::string::npos);
}

TEST(ResultIo, FullResultSerializes) {
  Scenario s;
  s.kernel = kernels::triad_traits();
  s.computing_cores = 5;
  s.message_bytes = 4;
  s.pingpong_iterations = 10;
  s.compute_repetitions = 2;
  s.target_pass_seconds = 0.005;
  auto r = InterferenceLab(s).run();
  std::ostringstream os;
  write_result_json(os, s, r);
  std::string out = os.str();
  EXPECT_NE(out.find("\"machine\": \"henri\""), std::string::npos);
  EXPECT_NE(out.find("\"kernel\": \"stream-triad\""), std::string::npos);
  EXPECT_NE(out.find("\"comm_together\""), std::string::npos);
  EXPECT_NE(out.find("\"mem_stall_fraction\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'), std::count(out.begin(), out.end(), '}'));
}

TEST(ResultIo, NonFiniteValuesBecomeNull) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("bad", std::numeric_limits<double>::infinity());
    w.end_object();
  }
  EXPECT_NE(os.str().find("\"bad\": null"), std::string::npos);
}

std::string one_field(double value) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("v", value);
    w.end_object();
  }
  return os.str();
}

/// The text after `"v": ` up to the end of its line.
std::string value_text(const std::string& json) {
  const std::size_t at = json.find("\"v\": ") + 5;
  return json.substr(at, json.find('\n', at) - at);
}

TEST(ResultIo, NumbersKeepEveryDigit) {
  // The default stream precision printed these as 3.21558e+06 and
  // 5.91161e+10.
  EXPECT_EQ(value_text(one_field(3215580.0)), "3215580");
  EXPECT_EQ(value_text(one_field(59116101234.0)), "59116101234");
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-310, -1e300, 6.02214076e23}) {
    const std::string text = value_text(one_field(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(ResultIo, SeedIsWrittenAsAnExactInteger) {
  Scenario s;
  s.seed = (std::uint64_t{1} << 63) + 1;
  std::ostringstream os;
  write_result_json(os, s, SideBySideResult{});
  EXPECT_NE(os.str().find("\"seed\": 9223372036854775809\n"), std::string::npos) << os.str();
}

TEST(ResultIo, KeysAndStringsAreEscaped) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("a\"b\\c\nd", std::string("x\"y\\z\n\x01"));
    w.object_field("o\"");
    w.end_object();
    w.end_object();
  }
  EXPECT_NE(os.str().find("\"a\\\"b\\\\c\\nd\": \"x\\\"y\\\\z\\n\\u0001\""),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("\"o\\\"\": {"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace cci::core
