// tests/support/json_dom.hpp
//
// A recursive-descent JSON parser producing a JsonValue tree: depth-limited
// (kJsonMaxDepth), bounds-checked, and throwing std::runtime_error("json:
// WHY at byte N") on the first malformed byte. It is the reference the
// request-line scanner in serve/protocol.cpp must agree with byte for byte
// (tests/serve/protocol_scan_test.cpp), and the tests' reader for JSON
// replies such as stats lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace mixq::serve {

/// Parse-tree node. Numbers are kept as double (plus the exact source text
/// check for integer ids happens at use sites via is_integer()).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// True for a number that is an exact integer representable in int64.
  [[nodiscard]] bool is_integer() const;
  [[nodiscard]] std::int64_t as_integer() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error("json: ... at byte N") on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace mixq::serve
