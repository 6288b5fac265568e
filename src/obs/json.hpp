// JSON text primitives shared by the result records (core/result_io) and
// the Chrome trace: strings with quotes, backslashes and control
// characters escaped, and numbers as the shortest text that parses back to
// the same bits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace cci::obs {

/// `s` as a JSON string literal, quotes included.
void write_json_string(std::ostream& os, std::string_view s);

/// The shortest text that parses back to the same bits; `null` for a NaN
/// or an infinity, which JSON cannot spell.
void write_json_number(std::ostream& os, double value);
/// An integer in full.
void write_json_number(std::ostream& os, std::int64_t value);
void write_json_number(std::ostream& os, std::uint64_t value);

}  // namespace cci::obs
