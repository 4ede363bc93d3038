// The JSON writers, checked through the request scanner the daemon reads
// with (serve/protocol.hpp), and the tree parser the scanner is compared
// against (support/json_dom.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/json_dom.hpp"
#include "tensor/rng.hpp"

namespace mixq::serve {
namespace {

/// `text` as the one "input" element of a request line, read back through
/// parse_protocol_line. False (and `out` untouched) unless the line parses
/// as a request.
bool read_served_float(const std::string& text, float& out) {
  const ParsedLine p = parse_protocol_line(
      "{\"id\":0,\"input\":[" + text + "]}", 1, 4096, 0);
  if (p.kind != ParsedLine::Kind::kRequest || p.request.input.size() != 1) {
    return false;
  }
  out = p.request.input[0];
  return true;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("42").number, 42.0);
  EXPECT_EQ(parse_json("-7.5e2").number, -750.0);
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
  EXPECT_EQ(parse_json("  1  ").number, 1.0);
}

TEST(Json, ParsesContainers) {
  const JsonValue v = parse_json(
      "{\"id\": 3, \"input\": [1, 2.5, -3], \"nested\": {\"a\": []}}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* id = v.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->is_integer());
  EXPECT_EQ(id->as_integer(), 3);
  const JsonValue* input = v.find("input");
  ASSERT_NE(input, nullptr);
  ASSERT_EQ(input->array.size(), 3u);
  EXPECT_EQ(input->array[1].number, 2.5);
  const JsonValue* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->find("a"), nullptr);
  EXPECT_TRUE(nested->find("a")->is_array());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"b\\\\\"").string, "a\n\t\"b\\");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").string, "A\xC3\xA9");
}

TEST(Json, RejectsMalformed) {
  const char* bad[] = {
      "",          "{",           "}",          "[1,",       "[1 2]",
      "{\"a\"}",   "{\"a\":}",    "{a:1}",      "tru",       "nul",
      "01x",       "1.",          "1e",         "+1",        "\"unterminated",
      "\"bad\\q\"", "[1]extra",   "{\"a\":1,}", "\"\\u12g4\"",
      "1e999",     "--5",
  };
  for (const char* s : bad) {
    EXPECT_THROW(parse_json(s), std::runtime_error);
  }
}

TEST(Json, DepthLimitHolds) {
  std::string deep;
  for (int i = 0; i < kJsonMaxDepth + 8; ++i) deep += "[";
  EXPECT_THROW(parse_json(deep), std::runtime_error);
  std::string ok;
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) ok += "[";
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) ok += "]";
  EXPECT_NO_THROW(parse_json(ok));
}

TEST(Json, IsIntegerEdgeCases) {
  EXPECT_TRUE(parse_json("0").is_integer());
  EXPECT_TRUE(parse_json("-9007199254740992").is_integer());
  EXPECT_FALSE(parse_json("1.5").is_integer());
  EXPECT_FALSE(parse_json("1e300").is_integer() &&
               parse_json("1e300").as_integer() > 0);  // out of int64 range
  EXPECT_FALSE(parse_json("true").is_integer());
}

TEST(Json, FloatFormatRoundTripsBitExactly) {
  // The serving protocol's core float invariant: shortest round-trip
  // formatting reads back through the request path to the identical
  // value, for every float the pipeline can produce.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    float v;
    if (i % 4 == 0) {
      v = static_cast<float>(rng.uniform(-1e6, 1e6));
    } else if (i % 4 == 1) {
      v = static_cast<float>(rng.normal(0.0, 1e-4));
    } else if (i % 4 == 2) {
      v = std::ldexp(static_cast<float>(rng.uniform(1.0, 2.0)),
                     static_cast<int>(rng.uniform_int(250)) - 125);
    } else {
      v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    std::string s;
    append_json_float(s, v);
    float back = std::nanf("");
    ASSERT_TRUE(read_served_float(s, back)) << s;
    ASSERT_TRUE(same_bits(back, v)) << s;
  }
  // Denormals, both zeros and the extremes too.
  for (const float v : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::max(),
                        std::numeric_limits<float>::lowest()}) {
    std::string s;
    append_json_float(s, v);
    float back = std::nanf("");
    ASSERT_TRUE(read_served_float(s, back)) << s;
    ASSERT_TRUE(same_bits(back, v)) << s;
  }
}

TEST(Json, NonFiniteEmitsNull) {
  std::string s;
  append_json_float(s, std::numeric_limits<float>::infinity());
  EXPECT_EQ(s, "null");
  s.clear();
  append_json_double(s, std::nan(""));
  EXPECT_EQ(s, "null");
}

TEST(Json, EscapedStringsRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  std::string s;
  append_json_string(s, nasty);
  EXPECT_EQ(parse_json(s).string, nasty);
  // The request path decodes it the same way.
  const ParsedLine p = parse_protocol_line(
      "{\"cmd\":\"reload\",\"path\":" + s + "}", 1, 4096, 0);
  ASSERT_EQ(p.kind, ParsedLine::Kind::kReload);
  EXPECT_EQ(p.reload_path, nasty);
}

}  // namespace
}  // namespace mixq::serve
