// Differential suite for the request-line scanner behind
// parse_protocol_line: every line must come back exactly as the former
// tree-based reading of it did -- parse_json into a JsonValue, then
// first-match member lookups (support/protocol_ref.hpp:
// dom_parse_protocol_line). Kind, error code, error text (with its byte
// offset), echoed id, model, path and every float bit must agree, on a
// seeded corpus of random and mutated lines and on named edge cases; the
// scanner's exact number conversion must also match std::from_chars plus
// the float cast bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/protocol_ref.hpp"
#include "tensor/rng.hpp"

namespace mixq::serve {
namespace {

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

constexpr std::int64_t kDefaultNumel = 4;
constexpr std::size_t kMaxLine = 4096;

const ModelDirectory& two_models() {
  static const ModelDirectory dir{{{"default", kDefaultNumel}, {"wide", 7}}};
  return dir;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

struct Verdict {
  ParsedLine scanned;
  std::string diff;
};

Verdict check(const std::string& line, std::size_t max_line = kMaxLine,
              std::int64_t default_deadline_ms = 0,
              const ModelDirectory* dir = &two_models()) {
  const ParsedLine ref = dom_parse_protocol_line(line, kDefaultNumel, max_line,
                                                 default_deadline_ms, dir);
  Verdict v{parse_protocol_line(line, kDefaultNumel, max_line,
                                default_deadline_ms, dir),
            {}};
  v.diff = protocol_difference(v.scanned, ref);
  return v;
}

std::string floats(int n, float base = 0.25f) {
  std::string s = "[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ",";
    append_json_float(s, base * static_cast<float>(i + 1));
  }
  return s + "]";
}

std::string depth_bomb(int levels) {
  return std::string(static_cast<std::size_t>(levels), '[') + "0" +
         std::string(static_cast<std::size_t>(levels), ']');
}

// ---------------------------------------------------------------------------
// Named cases: each must agree with the reference AND give the outcome
// the protocol documents.
// ---------------------------------------------------------------------------

TEST(ProtocolScan, InputBeforeModelIsCheckedAgainstThatModel) {
  const Verdict ok =
      check("{\"input\":" + floats(7) + ",\"id\":3,\"model\":\"wide\"}");
  EXPECT_EQ(ok.diff, "");
  ASSERT_EQ(ok.scanned.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(ok.scanned.request.model, "wide");
  EXPECT_EQ(ok.scanned.request.input.size(), 7u);
  EXPECT_EQ(ok.scanned.request.input[6], 1.75f);

  const Verdict short_in =
      check("{\"input\":" + floats(4) + ",\"model\":\"wide\",\"id\":1}");
  EXPECT_EQ(short_in.diff, "");
  EXPECT_EQ(short_in.scanned.error, "\"input\" must have 7 elements, got 4");

  const Verdict unknown =
      check("{\"input\":" + floats(4) + ",\"model\":\"nope\",\"id\":2}");
  EXPECT_EQ(unknown.diff, "");
  EXPECT_EQ(unknown.scanned.code, ErrCode::kNotFound);
  EXPECT_EQ(unknown.scanned.id, 2);
}

TEST(ProtocolScan, DuplicateKeysFirstOneWins) {
  const Verdict v = check("{\"id\":1,\"id\":2,\"input\":" + floats(4) +
                          ",\"input\":\"x\",\"model\":\"\",\"model\":5}");
  EXPECT_EQ(v.diff, "");
  ASSERT_EQ(v.scanned.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(v.scanned.request.id, 1);
  EXPECT_EQ(v.scanned.request.model, "");

  const Verdict bad_first =
      check("{\"id\":\"x\",\"id\":1,\"input\":" + floats(4) + "}");
  EXPECT_EQ(bad_first.diff, "");
  EXPECT_EQ(bad_first.scanned.error, "missing or non-integer \"id\"");

  const Verdict cmd_twice =
      check("{\"cmd\":\"stats\",\"cmd\":\"shutdown\"}");
  EXPECT_EQ(cmd_twice.diff, "");
  EXPECT_EQ(cmd_twice.scanned.kind, ParsedLine::Kind::kStats);

  // A repeated "input" is validated like any value, not captured.
  const Verdict later_bad =
      check("{\"id\":1,\"input\":" + floats(4) + ",\"input\":[1e999]}");
  EXPECT_EQ(later_bad.diff, "");
  EXPECT_EQ(later_bad.scanned.kind, ParsedLine::Kind::kError);
}

TEST(ProtocolScan, EscapedKeysAreDecodedBeforeMatching) {
  const Verdict v =
      check("{\"\\u0069d\":5,\"\\u0069nput\":" + floats(4) +
            ",\"m\\u006fdel\":\"w\\u0069de\"}");
  EXPECT_EQ(v.diff, "");
  ASSERT_EQ(v.scanned.kind, ParsedLine::Kind::kError);
  EXPECT_EQ(v.scanned.error, "\"input\" must have 7 elements, got 4");
  EXPECT_EQ(v.scanned.id, 5);

  const Verdict cmd = check("{\"\\u0063md\":\"sh\\u0075tdown\"}");
  EXPECT_EQ(cmd.diff, "");
  EXPECT_EQ(cmd.scanned.kind, ParsedLine::Kind::kShutdown);
}

TEST(ProtocolScan, IdSpellings) {
  struct Case {
    const char* id;
    bool integer;
    std::int64_t value;
  };
  const Case cases[] = {
      {"1e0", true, 1},
      {"-0", true, 0},
      {"9223372036854775808", false, 0},   // 2^63
      {"9223372036854775807", false, 0},   // rounds to 2^63 as a double
      {"-9223372036854775808", true, std::numeric_limits<std::int64_t>::min()},
      {"2.5", false, 0},
      {"1E+2", true, 100},
      {"00012", true, 12},
  };
  for (const Case& c : cases) {
    const Verdict v =
        check(std::string("{\"id\":") + c.id + ",\"input\":" + floats(4) + "}");
    EXPECT_EQ(v.diff, "") << c.id;
    if (c.integer) {
      ASSERT_EQ(v.scanned.kind, ParsedLine::Kind::kRequest) << c.id;
      EXPECT_EQ(v.scanned.request.id, c.value) << c.id;
    } else {
      EXPECT_EQ(v.scanned.error, "missing or non-integer \"id\"") << c.id;
    }
  }
}

TEST(ProtocolScan, DeadlineIsCheckedBeforeElementTypes) {
  const Verdict v = check(
      "{\"id\":4,\"input\":[1,\"two\",3,4],\"deadline_ms\":0}");
  EXPECT_EQ(v.diff, "");
  EXPECT_EQ(v.scanned.error, "\"deadline_ms\" must be an integer in [1, " +
                                 std::to_string(kMaxDeadlineMs) + "]");
  EXPECT_EQ(v.scanned.id, 4);

  const Verdict types =
      check("{\"id\":4,\"input\":[1,\"two\",3,4],\"deadline_ms\":10}");
  EXPECT_EQ(types.diff, "");
  EXPECT_EQ(types.scanned.error, "\"input\" elements must be numbers");

  // A wrong count is reported before either.
  const Verdict count =
      check("{\"id\":4,\"input\":[1,\"two\",3],\"deadline_ms\":0}");
  EXPECT_EQ(count.diff, "");
  EXPECT_EQ(count.scanned.error, "\"input\" must have 4 elements, got 3");
}

TEST(ProtocolScan, OutOfRangeNumbersAreSyntaxErrors) {
  const std::string in_input = "{\"id\":1,\"input\":[1,2,1e999,4]}";
  const Verdict a = check(in_input);
  EXPECT_EQ(a.diff, "");
  EXPECT_EQ(a.scanned.error, "json: number out of range at byte 26");

  const Verdict b = check("{\"junk\":-1e999,\"id\":1,\"input\":" + floats(4) + "}");
  EXPECT_EQ(b.diff, "");
  EXPECT_EQ(b.scanned.kind, ParsedLine::Kind::kError);
  EXPECT_FALSE(b.scanned.has_id);
}

TEST(ProtocolScan, ExtremeFloatsKeepEveryBit) {
  const std::array<float, 4> extremes = {
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::max(), std::numeric_limits<float>::min(),
      -0.0f};
  std::string line = "{\"id\":9,\"input\":[";
  for (std::size_t i = 0; i < extremes.size(); ++i) {
    if (i > 0) line += ",";
    append_json_float(line, extremes[i]);
  }
  line += "]}";
  const Verdict v = check(line);
  EXPECT_EQ(v.diff, "");
  ASSERT_EQ(v.scanned.kind, ParsedLine::Kind::kRequest);
  for (std::size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_TRUE(same_bits(v.scanned.request.input[i], extremes[i])) << i;
  }
  // Doubles that narrow to a float denormal and to zero.
  const Verdict narrow = check("{\"id\":9,\"input\":[1e-40,1e-300,-1e-46,3e-39]}");
  EXPECT_EQ(narrow.diff, "");
  ASSERT_EQ(narrow.scanned.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(narrow.scanned.request.input[1], 0.0f);
}

TEST(ProtocolScan, DepthBombInsideAnUnknownKey) {
  const std::string tail = ",\"id\":1,\"input\":" + floats(4) + "}";
  // The member value sits at depth 1: 63 nested arrays put the 0 at
  // depth 64, the limit, and 65 put a bracket past it.
  const Verdict deep = check("{\"x\":" + depth_bomb(kJsonMaxDepth + 1) + tail);
  EXPECT_EQ(deep.diff, "");
  EXPECT_EQ(deep.scanned.error.rfind("json: nesting too deep at byte ", 0), 0u)
      << deep.scanned.error;

  const Verdict at_limit = check("{\"x\":" + depth_bomb(kJsonMaxDepth - 1) + tail);
  EXPECT_EQ(at_limit.diff, "");
  EXPECT_EQ(at_limit.scanned.kind, ParsedLine::Kind::kRequest);

  // Unterminated: still refused at the depth bound, not by running out.
  const Verdict open = check("{\"x\":" + std::string(100'000, '['), 1 << 20);
  EXPECT_EQ(open.diff, "");
  EXPECT_EQ(open.scanned.error.rfind("json: nesting too deep", 0), 0u);
}

TEST(ProtocolScan, CommandsAndTheLineBound) {
  for (const char* line :
       {"{\"cmd\":\"reload\",\"model\":\"wide\",\"path\":\"/m/\\u00e9.img\"}",
        "{\"cmd\":\"reload\",\"path\":7,\"id\":3}", "{\"cmd\":1,\"id\":2}",
        "{\"cmd\":\"bogus\",\"id\":-0}", "  \t\r", "", "[]", "\"x\"",
        "{\"id\":1,\"input\":[1,2,3,4]}  x"}) {
    const Verdict v = check(line);
    EXPECT_EQ(v.diff, "") << line;
  }
  const Verdict reload =
      check("{\"cmd\":\"reload\",\"model\":\"wide\",\"path\":\"/m/\\u00e9.img\"}");
  EXPECT_EQ(reload.scanned.reload_path, "/m/\xC3\xA9.img");
  const Verdict too_long = check("{\"id\":1,\"input\":" + floats(4) + "}", 8);
  EXPECT_EQ(too_long.diff, "");
  EXPECT_EQ(too_long.scanned.error, "request line exceeds 8 bytes");
}

// ---------------------------------------------------------------------------
// Numbers: the scanner's exact conversion against std::from_chars.
// ---------------------------------------------------------------------------

/// std::from_chars to double, then the float cast; nullopt when from_chars
/// refuses the spelling.
std::optional<float> from_chars_float(const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return static_cast<float>(v);
}

/// parse_protocol_line over an exact-size heap copy of `line`, so a read
/// past its last byte is a sanitizer finding.
ParsedLine parse_exact(const std::string& line, std::int64_t numel) {
  const std::unique_ptr<char[]> buf(new char[line.size()]);
  std::memcpy(buf.get(), line.data(), line.size());
  return parse_protocol_line(std::string_view(buf.get(), line.size()), numel,
                             1 << 20, 0, nullptr);
}

std::string random_digits(Rng& rng, int n) {
  std::string s;
  for (int i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('0' + rng.uniform_int(10)));
  }
  return s;
}

/// Spellings across the exact conversion's range and just past it.
std::vector<std::string> number_spellings() {
  std::vector<std::string> out = {
      "0", "-0", "0.0", "-0.0", "7", "00012", "0.5", "0.05", "0.000123",
      "-0.0000001", "0.000000000000000001", "1.000000000000000001",
      // Mantissas 2^53 - 1, 2^53 and 2^53 + 1, with the point moved.
      "9007199254740991", "9007199254740992", "9007199254740993",
      "-9007199254740993", "900719925474.0993", "0.9007199254740993",
      "9.007199254740992", "90071992547409.91",
      // 19 and 20 significant digits.
      "1234567890123456789", "12345678901234567890", "9999999999999999999",
      "99999999999999999999", "0.1234567890123456789",
      "1.2345678901234567890", "123456789.0123456789",
      "0000000000000000000001", "0.00000000000000000000000001",
      // Exponents, inside and outside |e10| <= 22.
      "1e5", "1E5", "1e+5", "1.5e-3", "-2.5E+2", "1e22", "1e23", "1e-22",
      "1e-23", "9007199254740993e-5", "4503599627370497e22", "-0e0", "0e999",
      "1e-400", "1e999", "-1e999", "123456789e-30", "2e0000000000000000001",
      "1e-45", "3e-39", "1.4e-45", "3.4028236e38"};
  // Every form append_json_float writes: shortest round trips from
  // denormals through FLT_MAX.
  for (const float f :
       {FLT_MAX, -FLT_MAX, FLT_MIN, -FLT_MIN, FLT_TRUE_MIN, -FLT_TRUE_MIN,
        FLT_MIN / 2.0f, 1e-45f, 0.1f, 1.0f / 3.0f, 16777216.0f, 1e7f, 1e-7f,
        123456.789f, -0.0f}) {
    std::string t;
    append_json_float(t, f);
    out.push_back(t);
  }
  Rng rng(4242);
  for (int i = 0; i < 3000; ++i) {
    const float f = static_cast<float>(
        std::ldexp(rng.uniform(1.0, 2.0),
                   static_cast<int>(rng.uniform_int(280)) - 150) *
        (rng.uniform_int(2) != 0u ? -1.0 : 1.0));
    std::string t;
    append_json_float(t, f);
    out.push_back(t);
  }
  // Integer parts of 1-7 digits by fractions of 0-18 digits.
  for (int ni = 1; ni <= 7; ++ni) {
    for (int nf = 0; nf <= 18; ++nf) {
      for (int rep = 0; rep < 4; ++rep) {
        std::string t = rep % 2 == 1 ? "-" : "";
        t += random_digits(rng, ni);
        if (nf > 0) {
          t += '.';
          t += random_digits(rng, nf);
        }
        out.push_back(t);
      }
    }
  }
  return out;
}

TEST(ProtocolScan, NumbersMatchFromCharsBitForBit) {
  int converted = 0;  // spellings from_chars accepts
  for (const std::string& text : number_spellings()) {
    const std::optional<float> want = from_chars_float(text);
    // Six copies in an input array, the line padded with 0-40 trailing
    // spaces: the last elements start every distance from the end of the
    // line, so their digit runs end on both sides of the last whole
    // 8-byte word.
    for (int pad = 0; pad <= 40; ++pad) {
      std::string line = "{\"id\":1,\"input\":[";
      for (int i = 0; i < 6; ++i) line += (i > 0 ? "," : "") + text;
      line += "]}" + std::string(static_cast<std::size_t>(pad), ' ');
      const ParsedLine got = parse_exact(line, 6);
      const ParsedLine ref =
          dom_parse_protocol_line(line, 6, 1 << 20, 0, nullptr);
      ASSERT_EQ(protocol_difference(got, ref), "") << line;
      if (!want.has_value()) {
        ASSERT_EQ(got.kind, ParsedLine::Kind::kError) << line;
        continue;
      }
      ASSERT_EQ(got.kind, ParsedLine::Kind::kRequest) << line;
      for (const float f : got.request.input) {
        ASSERT_TRUE(same_bits(f, *want)) << text << " in " << line;
      }
    }
    converted += want.has_value() ? 1 : 0;
    // The bare number as the whole line (a document, but not a request),
    // padded with 0-9 spaces: its digits run up to the last byte.
    for (int pad = 0; pad <= 9; ++pad) {
      const std::string line =
          text + std::string(static_cast<std::size_t>(pad), ' ');
      ASSERT_EQ(protocol_difference(
                    parse_exact(line, 6),
                    dom_parse_protocol_line(line, 6, 1 << 20, 0, nullptr)),
                "")
          << line;
    }
    // Root members and a nested array.
    const std::string in = ",\"input\":" + floats(4);
    EXPECT_EQ(check("{\"id\":" + text + in + "}").diff, "") << text;
    EXPECT_EQ(check("{\"id\":2,\"deadline_ms\":" + text + in + "}").diff, "")
        << text;
    EXPECT_EQ(check("{\"x\":[" + text + ",[" + text + "]],\"id\":2" + in + "}")
                  .diff,
              "")
        << text;
  }
  EXPECT_GT(converted, 3000);
}

// ---------------------------------------------------------------------------
// Seeded corpus: random lines built from the protocol's own vocabulary,
// and byte-level mutations of them.
// ---------------------------------------------------------------------------

class LineGen {
 public:
  explicit LineGen(std::uint64_t seed) : rng_(seed) {}

  std::string line() {
    switch (below(10)) {
      case 0: return value(0);
      case 1:
      case 2: return command();
      default: return request();
    }
  }

  std::string mutate(std::string s) {
    static constexpr char kAlphabet[] =
        "{}[]\",:\\ -+.eE0123456789tfnulrsu\t\n\r\x01\x1f\x7f\xc3\xff";
    const int edits = 1 + static_cast<int>(below(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = s.empty() ? 0 : below(s.size() + 1);
      const char c = kAlphabet[below(sizeof(kAlphabet) - 1)];
      switch (below(7)) {
        case 0: if (at < s.size()) s.erase(at, 1 + below(3)); break;
        case 1: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        case 2: if (at < s.size()) s[at] = c; break;
        case 3: s.resize(at); break;
        case 4: if (at < s.size()) s.insert(at, s.substr(at, 1 + below(8))); break;
        case 5:
          s.insert(at, std::string(1 + below(70), below(2) ? '[' : '{'));
          break;
        default: s.insert(at, " \t"); break;
      }
    }
    return s;
  }

 private:
  std::uint64_t below(std::uint64_t n) { return rng_.uniform_int(n); }
  template <std::size_t N>
  const char* pick(const char* const (&xs)[N]) {
    return xs[below(N)];
  }

  std::string ws() {
    static const char* const kWs[] = {"", "", "", "", " ", "\t", "\r\n ", "  "};
    return pick(kWs);
  }

  std::string number() {
    static const char* const kNumbers[] = {
        "0", "7", "-3", "1e0", "-0", "2.5", "1E+2", "00012", "3600000",
        "3600001", "9223372036854775808", "9223372036854775807",
        "-9223372036854775808", "1e999", "-1e999", "1e-400", "4e38",
        "1e-45", "-", "1.", ".5", "+1", "1e", "0x10", "1.5e-3", "-12.25"};
    if (below(12) == 0) return pick(kNumbers);
    std::string s;
    const float f = below(8) == 0
                        ? std::ldexp(1.0f, -static_cast<int>(below(150)))
                        : static_cast<float>(rng_.uniform(-4.0, 4.0));
    append_json_float(s, f);
    return s;
  }

  std::string string() {
    static const char* const kStrings[] = {
        "\"\"", "\"default\"", "\"wide\"", "\"nope\"", "\"w\\u0069de\"",
        "\"shutdown\"", "\"stats\"", "\"info\"", "\"health\"", "\"reload\"",
        "\"sh\\u0075tdown\"", "\"bogus\"", "\"/m/a.img\"", "\"\\n\\\"\\/\"",
        "\"\\u00e9\\u20ac\"", "\"\xc3\xa9\"", "\"bad\\q\"", "\"\\u12g4\"",
        "\"raw\x01\"", "\"raw\x1f\"", "\"open"};
    return pick(kStrings);
  }

  std::string key() {
    static const char* const kKeys[] = {
        "\"id\"", "\"cmd\"", "\"model\"", "\"path\"", "\"deadline_ms\"",
        "\"input\"", "\"x\"", "\"\\u0069d\"", "\"\\u0069nput\"", "\"inpu\"",
        "\"ID\"", "\"\""};
    return pick(kKeys);
  }

  std::string value(int depth) {
    switch (below(depth > 3 ? 5 : 8)) {
      case 0:
      case 1: return number();
      case 2: return string();
      case 3: return pick({"true", "false", "null"});
      case 4: return below(20) == 0 ? depth_bomb(60 + static_cast<int>(below(8)))
                                    : "[]";
      case 5: return input_array(kDefaultNumel);
      case 6: {
        std::string s = "[" + ws();
        const int n = static_cast<int>(below(4));
        for (int i = 0; i < n; ++i) {
          if (i > 0) {
        s += ',';
        s += ws();
      }
          s += value(depth + 1);
        }
        return s + ws() + "]";
      }
      default: {
        std::string s = "{";
        const int n = static_cast<int>(below(3));
        for (int i = 0; i < n; ++i) {
          if (i > 0) s += ",";
          s += ws() + key() + ws() + ":" + ws() + value(depth + 1);
        }
        return s + ws() + "}";
      }
    }
  }

  /// Mostly `numel` numbers, now and then a wrong count or a non-number.
  std::string input_array(std::int64_t numel) {
    static constexpr int kCounts[] = {0, 1, 3, 5, 9};
    const int n = below(5) == 0 ? kCounts[below(std::size(kCounts))]
                                : static_cast<int>(numel);
    std::string s = "[";
    for (int i = 0; i < n; ++i) {
      if (i > 0) {
        s += ',';
        s += ws();
      }
      s += below(40) == 0 ? value(2) : number();
    }
    return s + "]";
  }

  std::string object(std::vector<std::string> members) {
    // Random order, an occasional extra or repeated member.
    if (below(4) == 0) members.push_back(key() + ":" + value(1));
    if (below(6) == 0) members.push_back(members[below(members.size())]);
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[below(i)]);
    }
    std::string s = ws() + "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) {
        s += ',';
        s += ws();
      }
      s += members[i];
    }
    return s + ws() + "}" + ws();
  }

  std::string request() {
    static const char* const kModels[] = {"\"default\"", "\"wide\"", "\"\"",
                                          "\"w\\u0069de\""};
    std::vector<std::string> m;
    std::string id = std::to_string(below(1000));
    if (below(8) == 0) id = below(2) ? value(1) : number();
    m.push_back("\"id\":" + id);
    std::int64_t numel = kDefaultNumel;
    if (below(3) == 0) {
      const std::size_t which = below(std::size(kModels));
      numel = which == 1 || which == 3 ? 7 : kDefaultNumel;
      m.push_back("\"model\":" +
                  (below(6) == 0 ? value(1) : std::string(kModels[which])));
    }
    m.push_back("\"input\":" + (below(15) == 0 ? value(1) : input_array(numel)));
    if (below(4) == 0) {
      m.push_back("\"deadline_ms\":" +
                  (below(3) == 0 ? value(1) : std::to_string(1 + below(5000))));
    }
    return object(std::move(m));
  }

  std::string command() {
    std::vector<std::string> m;
    m.push_back("\"cmd\":" + (below(6) == 0 ? value(1) : string()));
    if (below(3) == 0) {
      m.push_back("\"model\":" + (below(4) == 0 ? value(1) : string()));
    }
    if (below(3) == 0) {
      m.push_back("\"path\":" + (below(4) == 0 ? value(1) : string()));
    }
    if (below(3) == 0) m.push_back("\"id\":" + number());
    return object(std::move(m));
  }

  Rng rng_;
};

TEST(ProtocolScan, AgreesWithTheTreeParserOnASeededCorpus) {
  constexpr int kLines = 200'000;
  LineGen gen(20201);
  Rng knobs(77);
  std::array<int, 8> kinds{};
  std::array<int, 7> codes{};
  int disagreements = 0;
  std::string line;
  for (int i = 0; i < kLines; ++i) {
    line = gen.line();
    if (i % 2 == 1) line = gen.mutate(std::move(line));
    const bool small_cap = knobs.uniform_int(50) == 0;
    const std::size_t cap =
        small_cap ? knobs.uniform_int(line.size() + 2) : kMaxLine;
    const std::int64_t default_deadline = knobs.uniform_int(4) == 0 ? 50 : 0;
    const ModelDirectory* dir =
        knobs.uniform_int(10) == 0 ? nullptr : &two_models();
    const Verdict v = check(line, cap, default_deadline, dir);
    ++kinds[static_cast<std::size_t>(v.scanned.kind)];
    if (v.scanned.kind == ParsedLine::Kind::kError) {
      ++codes[static_cast<std::size_t>(v.scanned.code)];
    }
    if (!v.diff.empty() && ++disagreements <= 10) {
      ADD_FAILURE() << "line " << i << " [" << line << "]: " << v.diff;
    }
  }
  EXPECT_EQ(disagreements, 0);
  // The corpus reaches every outcome the protocol has.
  EXPECT_GT(kinds[static_cast<std::size_t>(ParsedLine::Kind::kRequest)], 10'000);
  EXPECT_GT(kinds[static_cast<std::size_t>(ParsedLine::Kind::kError)], 50'000);
  for (const auto k : {ParsedLine::Kind::kBlank, ParsedLine::Kind::kInfo,
                       ParsedLine::Kind::kStats, ParsedLine::Kind::kShutdown,
                       ParsedLine::Kind::kHealth, ParsedLine::Kind::kReload}) {
    EXPECT_GT(kinds[static_cast<std::size_t>(k)], 0)
        << "kind " << static_cast<int>(k);
  }
  EXPECT_GT(codes[static_cast<std::size_t>(ErrCode::kNotFound)], 100);
}

}  // namespace
}  // namespace mixq::serve
