#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "serve/json.hpp"

namespace mixq::serve {

const char* err_code_slug(ErrCode code) {
  switch (code) {
    case ErrCode::kMalformed: return "malformed";
    case ErrCode::kTimeout: return "timeout";
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kInternal: return "internal";
    case ErrCode::kNotFound: return "not_found";
    case ErrCode::kReloadFailed: return "reload_failed";
  }
  return "internal";
}

bool err_code_retryable(ErrCode code) {
  // A timed-out request was never executed, so resubmitting it is safe;
  // malformed bytes can never succeed on retry, and neither can a request
  // naming a model the registry does not hold (the model SET is fixed at
  // startup -- only a model's content is swappable). A failed reload IS
  // retryable: the same command succeeds once the image at that path is
  // replaced with a valid one.
  return code != ErrCode::kMalformed && code != ErrCode::kNotFound;
}

std::string format_error_line(ErrCode code, std::string_view message,
                              const std::int64_t* id,
                              std::int64_t retry_after_ms) {
  std::string line = "{\"error\":";
  append_json_string(line, message);
  line += ",\"code\":\"";
  line += err_code_slug(code);
  line += "\",\"retryable\":";
  line += err_code_retryable(code) ? "true" : "false";
  if (id != nullptr) {
    line += ",\"id\":" + std::to_string(*id);
  }
  if (retry_after_ms >= 0) {
    line += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  line += "}";
  return line;
}

namespace {

/// One top-level member the protocol reads, as first written in the line
/// (a repeated key is validated and ignored, like a first-match lookup).
struct Member {
  enum class Kind : std::uint8_t { kAbsent, kNumber, kString, kOther };
  Kind kind{Kind::kAbsent};
  double number{0.0};
  std::string text;

  [[nodiscard]] bool present() const { return kind != Kind::kAbsent; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  /// An exact integer in int64's range [-2^63, 2^63) (2^63 itself is a
  /// double, so the upper bound must be exclusive).
  [[nodiscard]] bool is_integer() const {
    constexpr double kInt64Edge = 9223372036854775808.0;  // 2^63
    return kind == Kind::kNumber && number >= -kInt64Edge &&
           number < kInt64Edge && number == std::floor(number);
  }
  [[nodiscard]] std::int64_t integer() const {
    return static_cast<std::int64_t>(number);
  }
};

/// One pass over a request line with full JSON validation: the grammar,
/// the kJsonMaxDepth nesting bound and the error texts ("json: WHY at
/// byte N") of a recursive-descent parser, without building a tree. The
/// root object's protocol members are captured as they pass; the first
/// "input" array's numbers go straight to floats (std::from_chars to
/// double, then a narrowing cast). Throws std::runtime_error on the first
/// malformed byte.
class Scanner {
 public:
  Scanner(std::string_view line, std::int64_t input_numel,
          const ModelDirectory* models)
      : begin_(line.data()),
        cur_(line.data()),
        end_(line.data() + line.size()),
        input_numel_(input_numel),
        models_(models) {}

  void scan() {
    skip_ws();
    root_is_object = cur_ != end_ && *cur_ == '{';
    value(0);
    skip_ws();
    if (cur_ != end_) fail("trailing characters after document");
  }

  bool root_is_object{false};
  Member id, cmd, model, path, deadline_ms;
  bool input_seen{false};
  bool input_is_array{false};
  std::vector<float> input;    ///< the numeric elements of "input"
  std::size_t input_other{0};  ///< its non-numeric elements

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error("json: " + std::string(why) + " at byte " +
                             std::to_string(cur_ - begin_));
  }

  char take() {
    if (cur_ == end_) fail("unexpected end of input");
    return *cur_++;
  }

  bool consume(char c) {
    if (cur_ == end_ || *cur_ != c) return false;
    ++cur_;
    return true;
  }

  void skip_ws() {
    while (cur_ != end_ &&
           (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' || *cur_ == '\r')) {
      ++cur_;
    }
  }

  [[nodiscard]] bool at_number() const {
    return cur_ != end_ && (*cur_ == '-' || (*cur_ >= '0' && *cur_ <= '9'));
  }

  void value(int depth) {
    if (depth > kJsonMaxDepth) fail("nesting too deep");
    if (cur_ == end_) fail("unexpected end of input");
    switch (*cur_) {
      case '{': object(depth); return;
      case '[': array(depth); return;
      case '"': string(scratch_); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }

  void literal(std::string_view lit) {
    if (!std::string_view(cur_, static_cast<std::size_t>(end_ - cur_))
             .starts_with(lit)) {
      fail("invalid literal");
    }
    cur_ += lit.size();
  }

  /// Members of the root object (depth 0) are routed to member().
  void object(int depth) {
    ++cur_;  // '{'
    skip_ws();
    if (consume('}')) return;
    while (true) {
      skip_ws();
      if (cur_ == end_ || *cur_ != '"') fail("expected object key");
      string(key_);
      skip_ws();
      if (!consume(':')) fail("unexpected character");
      skip_ws();
      if (depth == 0) {
        member();
      } else {
        value(depth + 1);
      }
      skip_ws();
      const char c = take();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  /// `is_input` marks the root's first "input": its numbers are kept as
  /// floats and its other elements counted.
  void array(int depth, bool is_input = false) {
    ++cur_;  // '['
    skip_ws();
    if (consume(']')) return;
    while (true) {
      skip_ws();
      if (is_input && at_number()) {
        input.push_back(static_cast<float>(number()));
      } else {
        value(depth + 1);
        input_other += is_input ? 1 : 0;
      }
      skip_ws();
      const char c = take();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// The value of the root member named key_ (depth 1).
  void member() {
    Member* m = key_ == "id"            ? &id
                : key_ == "cmd"         ? &cmd
                : key_ == "model"       ? &model
                : key_ == "path"        ? &path
                : key_ == "deadline_ms" ? &deadline_ms
                                        : nullptr;
    if (m != nullptr && !m->present()) {
      m->kind = Member::Kind::kOther;
      if (cur_ != end_ && *cur_ == '"') {
        m->kind = Member::Kind::kString;
        string(m->text);
      } else if (at_number()) {
        m->kind = Member::Kind::kNumber;
        m->number = number();
      } else {
        value(1);
      }
      return;
    }
    if (key_ == "input" && !input_seen) {
      input_seen = true;
      input_is_array = cur_ != end_ && *cur_ == '[';
      if (input_is_array) {
        // The routed model's numel, but never more than the rest of the
        // line can hold (two bytes per element).
        std::int64_t want = input_numel_;
        if (model.is_string() && !model.text.empty()) {
          want = models_ != nullptr ? models_->numel_of(model.text) : -1;
        }
        const auto fit = static_cast<std::size_t>(end_ - cur_) / 2 + 1;
        input.reserve(
            want < 0 ? 0 : std::min(static_cast<std::size_t>(want), fit));
        array(1, /*is_input=*/true);
        return;
      }
    }
    value(1);
  }

  void string(std::string& out) {
    ++cur_;  // '"'
    out.clear();
    while (true) {
      const char* run = cur_;
      while (cur_ != end_ && *cur_ != '"' && *cur_ != '\\' &&
             static_cast<unsigned char>(*cur_) >= 0x20) {
        ++cur_;
      }
      out.append(run, cur_);
      if (cur_ == end_) fail("unterminated string");
      const char c = *cur_++;
      if (c == '"') return;
      if (c != '\\') fail("raw control character in string");
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<std::uint32_t>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The BMP code point as UTF-8 (surrogate pairs are not needed
          // by the protocol; lone surrogates pass through as-is).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  bool digits() {
    const char* start = cur_;
    while (cur_ != end_ && *cur_ >= '0' && *cur_ <= '9') ++cur_;
    return cur_ != start;
  }

  double number() {
    const char* start = cur_;
    consume('-');
    if (!digits()) fail("invalid number");
    if (consume('.') && !digits()) fail("invalid number fraction");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) fail("invalid number exponent");
    }
    double v = 0.0;
    const auto res = std::from_chars(start, cur_, v);
    if (res.ec != std::errc{} || res.ptr != cur_) fail("number out of range");
    return v;
  }

  const char* begin_;
  const char* cur_;
  const char* end_;
  std::int64_t input_numel_;
  const ModelDirectory* models_;
  std::string key_;
  std::string scratch_;
};

ParsedLine make_error(std::string message, const Member* id,
                      ErrCode code = ErrCode::kMalformed) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.code = code;
  p.error = std::move(message);
  if (id != nullptr && id->is_integer()) {
    p.has_id = true;
    p.id = id->integer();
  }
  return p;
}

}  // namespace

ParsedLine parse_protocol_line(std::string_view line, std::int64_t input_numel,
                               std::size_t max_line_bytes,
                               std::int64_t default_deadline_ms,
                               const ModelDirectory* models) {
  ParsedLine p;
  if (line.empty() || line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return make_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }
  Scanner s(line, input_numel, models);
  try {
    s.scan();
  } catch (const std::runtime_error& e) {
    return make_error(e.what(), nullptr);
  }
  if (!s.root_is_object) {
    return make_error("request must be a JSON object", nullptr);
  }
  if (s.cmd.present()) {
    if (!s.cmd.is_string()) {
      return make_error("\"cmd\" must be a string", &s.id);
    }
    const std::string& cmd = s.cmd.text;
    using K = ParsedLine::Kind;
    for (const auto& [name, kind] :
         {std::pair{"shutdown", K::kShutdown}, std::pair{"stats", K::kStats},
          std::pair{"info", K::kInfo}, std::pair{"health", K::kHealth}}) {
      if (cmd == name) {
        p.kind = kind;
        return p;
      }
    }
    if (cmd == "reload") {
      if (s.model.present() && !s.model.is_string()) {
        return make_error("\"model\" must be a string", &s.id);
      }
      if (s.path.present() && !s.path.is_string()) {
        return make_error("\"path\" must be a string", &s.id);
      }
      p.kind = ParsedLine::Kind::kReload;
      p.reload_model = std::move(s.model.text);
      p.reload_path = std::move(s.path.text);
      return p;
    }
    return make_error("unknown cmd \"" + cmd + "\"", &s.id);
  }

  if (!s.id.is_integer()) {
    return make_error("missing or non-integer \"id\"", nullptr);
  }
  if (!s.input_is_array) {
    return make_error("missing \"input\" array", &s.id);
  }
  // The model name routes the request AND selects the input length the
  // array is validated against -- resolution must precede the numel check.
  if (s.model.present() && !s.model.is_string()) {
    return make_error("\"model\" must be a string", &s.id);
  }
  std::int64_t want_numel = input_numel;
  if (!s.model.text.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(s.model.text) : -1;
    if (n < 0) {
      return make_error("unknown model \"" + s.model.text + "\"", &s.id,
                        ErrCode::kNotFound);
    }
    want_numel = n;
  }
  const std::size_t count = s.input.size() + s.input_other;
  if (static_cast<std::int64_t>(count) != want_numel) {
    return make_error("\"input\" must have " + std::to_string(want_numel) +
                          " elements, got " + std::to_string(count),
                      &s.id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (s.deadline_ms.present()) {
    if (!s.deadline_ms.is_integer() || s.deadline_ms.integer() < 1 ||
        s.deadline_ms.integer() > kMaxDeadlineMs) {
      return make_error("\"deadline_ms\" must be an integer in [1, " +
                            std::to_string(kMaxDeadlineMs) + "]",
                        &s.id);
    }
    deadline_ms = s.deadline_ms.integer();
  }
  if (s.input_other > 0) {
    return make_error("\"input\" elements must be numbers", &s.id);
  }

  p.kind = ParsedLine::Kind::kRequest;
  p.request.id = s.id.integer();
  p.request.model = std::move(s.model.text);
  p.request.input = std::move(s.input);
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

}  // namespace mixq::serve
