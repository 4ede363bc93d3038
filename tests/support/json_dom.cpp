#include "support/json_dom.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace mixq::serve {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error("json: " + std::string(why) + " at byte " +
                             std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char want) {
    if (eof() || peek() != want) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kJsonMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(take());
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
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
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // needed by the protocol; lone surrogates pass through as-is).
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

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (!eof() && peek() == '.') {
      ++pos_;
      if (digits() == 0) fail("invalid number fraction");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (digits() == 0) fail("invalid number exponent");
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto res =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (res.ec != std::errc{} || res.ptr != tok.data() + tok.size()) {
      fail("number out of range");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

bool JsonValue::is_integer() const {
  if (kind != Kind::kNumber) return false;
  if (!std::isfinite(number)) return false;
  // 2^63 is exactly representable as a double; the valid int64 range is
  // [-2^63, 2^63), so the upper comparison must be >= -- accepting 2^63
  // itself would make the as_integer() cast undefined behaviour.
  constexpr double kInt64Edge = 9223372036854775808.0;  // 2^63
  if (number < -kInt64Edge || number >= kInt64Edge) return false;
  return number == std::floor(number);
}

std::int64_t JsonValue::as_integer() const {
  if (!is_integer()) throw std::runtime_error("json: not an integer");
  return static_cast<std::int64_t>(number);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace mixq::serve
