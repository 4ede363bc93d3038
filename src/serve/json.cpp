#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mixq::serve {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

namespace {

template <typename T>
void append_number(std::string& out, T v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void append_json_float(std::string& out, float v) { append_number(out, v); }
void append_json_double(std::string& out, double v) { append_number(out, v); }

}  // namespace mixq::serve
