// mixq/serve/json.hpp
//
// JSON writers for the serving protocol and every component that prints
// JSON (reply formatters, stats, inspect, the benchmark tools). Float
// formatting is the shortest round-trip decimal (std::to_chars). Every
// mixq component that prints a logit goes through append_json_float,
// which is what makes `mixq run --ndjson` and `mixq serve` byte-identical
// on the same inputs (and makes float -> text -> float lossless for
// clients that echo inputs back). Request lines are read by the
// schema-aware scanner behind parse_protocol_line (serve/protocol.hpp).
#pragma once

#include <string>
#include <string_view>

namespace mixq::serve {

/// Append `s` JSON-escaped, with surrounding quotes.
void append_json_string(std::string& out, std::string_view s);

/// Append a float as its shortest decimal that round-trips to the same
/// value (std::to_chars). NaN/Inf are not valid JSON; they are emitted as
/// null.
void append_json_float(std::string& out, float v);
void append_json_double(std::string& out, double v);

}  // namespace mixq::serve
