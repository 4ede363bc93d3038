// tests/support/protocol_ref.hpp
//
// The reference reading of a protocol line: parse_json into a JsonValue
// tree (support/json_dom.hpp, numbers through std::from_chars), then
// first-match member lookups -- how parse_protocol_line read lines before
// the one-pass scanner in serve/protocol.cpp. The differential suite
// (serve/protocol_scan_test.cpp), the corpus replay
// (serve/protocol_corpus_replay_test.cpp) and the libFuzzer target
// (fuzz/protocol_scan_fuzz.cpp) all diff the scanner against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace mixq::serve {

/// parse_protocol_line's contract, read through the JSON tree.
ParsedLine dom_parse_protocol_line(std::string_view line,
                                   std::int64_t input_numel,
                                   std::size_t max_line_bytes,
                                   std::int64_t default_deadline_ms,
                                   const ModelDirectory* models);

/// "" when `a` (scanner) and `b` (reference) agree on every field a
/// transport can observe -- kind, code, error text, echoed id, reload
/// fields, request id/model/deadline and every input float bit --
/// otherwise the first field that differs.
std::string protocol_difference(const ParsedLine& a, const ParsedLine& b);

/// Reads `line` both ways and returns protocol_difference of the two. The
/// default model's input length is set to the length of the line's
/// "input" array as the tree reads it (4 when it has none), so every
/// well-formed request reaches its float comparison; "wide" names a
/// second model of 7 inputs, and the line cap is 1 MiB. The fuzzer and
/// the corpus replay share this harness.
std::string diff_against_reference(std::string_view line);

}  // namespace mixq::serve
