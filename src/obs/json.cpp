#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace cci::obs {

namespace {

template <typename T>
void write_chars(std::ostream& os, T value) {
  char buf[32];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, value);
  os.write(buf, res.ptr - buf);
}

}  // namespace

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double value) {
  if (std::isfinite(value))
    write_chars(os, value);
  else
    os << "null";
}

void write_json_number(std::ostream& os, std::int64_t value) { write_chars(os, value); }

void write_json_number(std::ostream& os, std::uint64_t value) { write_chars(os, value); }

}  // namespace cci::obs
