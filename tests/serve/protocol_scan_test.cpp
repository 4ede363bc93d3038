// Differential suite for the request-line scanner behind
// parse_protocol_line: every line must come back exactly as the former
// tree-based reading of it did -- parse_json into a JsonValue, then
// first-match member lookups (support/json_dom.hpp; the walk is kept
// below as dom_parse_protocol_line). Kind, error code, error text (with
// its byte offset), echoed id, model, path and every float bit must
// agree, on a seeded corpus of random and mutated lines and on named
// edge cases.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/json_dom.hpp"
#include "tensor/rng.hpp"

namespace mixq::serve {
namespace {

// ---------------------------------------------------------------------------
// The reference: parse the whole line into a tree, then walk it.
// ---------------------------------------------------------------------------

ParsedLine dom_error(std::string message, const JsonValue* id,
                     ErrCode code = ErrCode::kMalformed) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.code = code;
  p.error = std::move(message);
  if (id != nullptr && id->is_integer()) {
    p.has_id = true;
    p.id = id->as_integer();
  }
  return p;
}

ParsedLine dom_parse_protocol_line(std::string_view line,
                                   std::int64_t input_numel,
                                   std::size_t max_line_bytes,
                                   std::int64_t default_deadline_ms,
                                   const ModelDirectory* models) {
  ParsedLine p;
  if (line.empty() || line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return dom_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }
  JsonValue v;
  try {
    v = parse_json(line);
  } catch (const std::runtime_error& e) {
    return dom_error(e.what(), nullptr);
  }
  if (!v.is_object()) {
    return dom_error("request must be a JSON object", nullptr);
  }
  if (const JsonValue* cmd = v.find("cmd")) {
    if (!cmd->is_string()) {
      return dom_error("\"cmd\" must be a string", v.find("id"));
    }
    if (cmd->string == "shutdown") {
      p.kind = ParsedLine::Kind::kShutdown;
      return p;
    }
    if (cmd->string == "stats") {
      p.kind = ParsedLine::Kind::kStats;
      return p;
    }
    if (cmd->string == "info") {
      p.kind = ParsedLine::Kind::kInfo;
      return p;
    }
    if (cmd->string == "health") {
      p.kind = ParsedLine::Kind::kHealth;
      return p;
    }
    if (cmd->string == "reload") {
      const JsonValue* m = v.find("model");
      const JsonValue* path = v.find("path");
      if (m != nullptr && !m->is_string()) {
        return dom_error("\"model\" must be a string", v.find("id"));
      }
      if (path != nullptr && !path->is_string()) {
        return dom_error("\"path\" must be a string", v.find("id"));
      }
      p.kind = ParsedLine::Kind::kReload;
      if (m != nullptr) p.reload_model = m->string;
      if (path != nullptr) p.reload_path = path->string;
      return p;
    }
    return dom_error("unknown cmd \"" + cmd->string + "\"", v.find("id"));
  }

  const JsonValue* id = v.find("id");
  const JsonValue* input = v.find("input");
  if (id == nullptr || !id->is_integer()) {
    return dom_error("missing or non-integer \"id\"", nullptr);
  }
  if (input == nullptr || !input->is_array()) {
    return dom_error("missing \"input\" array", id);
  }
  std::string model_name;
  if (const JsonValue* m = v.find("model")) {
    if (!m->is_string()) {
      return dom_error("\"model\" must be a string", id);
    }
    model_name = m->string;
  }
  std::int64_t want_numel = input_numel;
  if (!model_name.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(model_name) : -1;
    if (n < 0) {
      return dom_error("unknown model \"" + model_name + "\"", id,
                       ErrCode::kNotFound);
    }
    want_numel = n;
  }
  if (static_cast<std::int64_t>(input->array.size()) != want_numel) {
    return dom_error("\"input\" must have " + std::to_string(want_numel) +
                         " elements, got " +
                         std::to_string(input->array.size()),
                     id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (const JsonValue* dl = v.find("deadline_ms")) {
    if (!dl->is_integer() || dl->as_integer() < 1 ||
        dl->as_integer() > kMaxDeadlineMs) {
      return dom_error("\"deadline_ms\" must be an integer in [1, " +
                           std::to_string(kMaxDeadlineMs) + "]",
                       id);
    }
    deadline_ms = dl->as_integer();
  }

  p.kind = ParsedLine::Kind::kRequest;
  p.request.id = id->as_integer();
  p.request.model = std::move(model_name);
  p.request.input.reserve(input->array.size());
  for (const JsonValue& x : input->array) {
    if (!x.is_number()) {
      return dom_error("\"input\" elements must be numbers", id);
    }
    p.request.input.push_back(static_cast<float>(x.number));
  }
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

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

/// "" when `a` (scanner) and `b` (reference) agree on every field a
/// transport can observe; otherwise the first field that differs.
std::string difference(const ParsedLine& a, const ParsedLine& b) {
  if (a.kind != b.kind) return "kind";
  if (a.kind == ParsedLine::Kind::kError) {
    if (a.code != b.code) return "code";
    if (a.error != b.error) return "error: " + a.error + " | " + b.error;
  }
  if (a.has_id != b.has_id || a.id != b.id) return "id";
  if (a.reload_model != b.reload_model) return "reload_model";
  if (a.reload_path != b.reload_path) return "reload_path";
  const Request& x = a.request;
  const Request& y = b.request;
  if (x.id != y.id) return "request.id";
  if (x.model != y.model) return "request.model";
  if (x.input.size() != y.input.size()) return "request.input size";
  for (std::size_t i = 0; i < x.input.size(); ++i) {
    if (!same_bits(x.input[i], y.input[i])) {
      return "request.input[" + std::to_string(i) + "]";
    }
  }
  const bool x_dl = x.deadline != Clock::time_point::max();
  const bool y_dl = y.deadline != Clock::time_point::max();
  if (x_dl != y_dl) return "request.deadline presence";
  // Both stamp now() + the same delay, moments apart.
  if (x_dl && (x.deadline < y.deadline ||
               x.deadline - y.deadline > std::chrono::seconds(5))) {
    return "request.deadline";
  }
  if (x.client != y.client || x.route != y.route) return "request routing";
  return {};
}

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
  v.diff = difference(v.scanned, ref);
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
          if (i > 0) s += "," + ws();
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
      if (i > 0) s += "," + ws();
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
      if (i > 0) s += "," + ws();
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
